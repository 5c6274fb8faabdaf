"""Shared corpus-building helpers for the test suite."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from pathlib import Path

import pytest

from entgraph.cli import PRODUCERS, STAGE_VERSION
from entgraph.model import Corpus, EntityId, Proposition, TypedPredicate

DATA = Path(__file__).parent / "data"


def reseal(out: Path, name: str) -> None:
    """Record the files the ``--out`` artifact ``name`` holds now in the
    manifest of the stage that writes it (a new manifest if there is none),
    as if that stage had written them. A test that hand-edits an artifact
    reseals it, so that the stage reading it gets past the digest check
    to the check the test is about."""
    stage = PRODUCERS[name]
    path = out / f"{stage}.manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {
        "stage": stage, "stage_version": STAGE_VERSION, "config": {}, "inputs": {}}
    target = out / name
    files = sorted(target.glob("*.graph")) if target.is_dir() else [target]
    outputs = {k: v for k, v in manifest.get("outputs", {}).items()
               if k != name and not k.startswith(f"{name}/")}
    for f in files:
        outputs[f.relative_to(out).as_posix()] = hashlib.sha256(f.read_bytes()).hexdigest()
    manifest["outputs"] = outputs
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def ent(key: str, named: bool = True) -> EntityId:
    return EntityId(key, None, named)


def pred(name: str, *types: str) -> TypedPredicate:
    """Build a predicate from an untyped name like 'kill' or 'die.1'."""
    if len(types) == 1:
        case = name[-2:] if len(name) > 2 and name[-2] == "." and name[-1] in "12" else ".1"
        lemma = name[:-2] if name.endswith(case) else name
        return TypedPredicate(lemma, 1, tuple(types), case)
    return TypedPredicate(name, 2, tuple(types))


def prop(
    name: str,
    args: tuple[str, ...],
    types: tuple[str, ...] | None = None,
    date: str | None = None,
    article: str = "a1",
    idx: int = 0,
) -> Proposition:
    types = types or tuple("person" for _ in args)
    return Proposition(
        pred(name, *types),
        tuple(ent(a) for a in args),
        article,
        dt.date.fromisoformat(date) if date else None,
        idx,
    )


def corpus(*props: Proposition) -> Corpus:
    return Corpus(props)


@pytest.fixture
def conformance_file() -> Path:
    return DATA / "conformance_propositions.jsonl"
