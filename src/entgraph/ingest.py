"""Proposition file ingestion and predicate normalization.

``ingest`` consumes newline-delimited JSON records produced by an upstream
extraction stack (parser, NER, entity linker). Each record carries a raw
predicate string plus voice/modifier annotations and role-indexed typed
arguments; see docs/formats.md for the exact field contract. It is the
only place where a predicate is lemmatized and an argument typed. What it
decides is saved and read back by ``records``, which the later stages load
instead of this module.
"""

from __future__ import annotations

import datetime as dt
import json
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .columns import INT32_MAX
from .model import (
    Corpus,
    EntityId,
    IngestStats,
    Proposition,
    TypeInventory,
    TypedPredicate,
    normalize_surface,
)
from .records import RecordError, _iso_date, _key_clash, _lemma, _negated, _typed


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


def parse_record(obj: dict, inventory: TypeInventory, stats: IngestStats) -> list[Proposition]:
    """Turn one raw record into propositions, or raise RecordError.

    The arguments are taken once as (post-voice role, argument) pairs in
    role order. A record with more than two of them becomes one binary per
    role pair (i < j), its roles renumbered 1 and 2 and the pair appended
    to the lemma, so that every binary stays a distinct view of its source
    predicate (murder -> murder.1.2, murder.1.3, ...).
    """
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    raw_pred = obj.get("predicate")
    args = obj.get("args")
    if not raw_pred or not isinstance(args, list) or not args:
        raise RecordError("record lacks predicate or args")
    voice = _typed(obj.get("voice", "active"), str, "voice")
    lemma = normalize_predicate(
        _typed(raw_pred, str, "predicate"), voice,
        _typed(obj.get("modifiers", []), list, "modifiers"),
    )

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

    date = _parse_date(obj.get("date"))
    article_id = _typed(obj.get("article_id", ""), str, "article_id")
    sentence_idx = _typed(obj.get("sentence_idx", 0), int, "sentence_idx")
    if sentence_idx > INT32_MAX:
        raise RecordError(f"sentence_idx {sentence_idx} does not fit a saved corpus")
    negated = _negated(lemma)

    props = []
    for name, view in views:
        roles = [role for role, _ in view]
        if len(roles) == 2 and roles != [1, 2]:
            raise RecordError(f"binary roles must be 1 and 2, got {roles}")
        if len(roles) == 1 and roles[0] not in (1, 2):
            raise RecordError(f"unary role must be 1 or 2, got {roles[0]}")

        entities: list[EntityId] = []
        types: list[str] = []
        for _, a in view:
            ent, etype, known = _parse_entity(a, inventory)
            if not known:
                stats.unknown_type_labels += 1
            entities.append(ent)
            types.append(etype)
        if not any(e.is_named for e in entities):
            # extraction filter: relations must anchor to a named entity
            stats.skipped_unnamed += 1
            continue

        case = f".{roles[0]}" if len(roles) == 1 else None
        pred = TypedPredicate(name, len(roles), tuple(types), case)
        props.append(
            Proposition(pred, tuple(entities), article_id, date, sentence_idx, negated)
        )
    return props


def ingest(path: str | Path, inventory: TypeInventory | None = None) -> Corpus:
    """Read a proposition file into a Corpus.

    Malformed records are skipped and counted in the returned corpus stats;
    an unreadable file raises OSError, and an unlinked surface equal to a
    kb id of the file raises ValueError naming the file and line.
    """
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
                obj = json.loads(line)
                props = parse_record(obj, inventory, stats)
            except (RecordError, ValueError, TypeError, KeyError):
                stats.skipped_malformed += 1
                continue
            for prop in props:
                for arg in prop.args:
                    if (clash := _key_clash(linked, arg)) is not None:
                        raise ValueError(f"{path}:{lineno}: {clash}")
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
