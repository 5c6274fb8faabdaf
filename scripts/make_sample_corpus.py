#!/usr/bin/env python3
"""Regenerate the shipped sample proposition corpus.

The corpus is fully explicit (no randomness): four 3-day news "stories"
over 2021-03-01..2021-03-12, sized so that every pipeline stage has
non-empty output: predicates repeat often enough to pass the feature
min-count and the question predicate filter, each partition has star
entities, and every WordNet-fixture substitute needed for negatives
occurs somewhere in the corpus.
"""

from __future__ import annotations

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "entgraph" / "data" / "sample" / "propositions.jsonl"

KB = {
    "phelps": "fb:m.phelps", "lochte": "fb:m.lochte", "biden": "fb:m.biden",
    "trump": "fb:m.trump", "romney": "fb:m.romney", "huckabee": "fb:m.huckabee",
    "mustard": "fb:m.mustard", "boddy": "fb:m.boddy", "scarlett": "fb:m.scarlett",
    "green": "fb:m.green", "google": "fb:m.google", "youtube": "fb:m.youtube",
    "microsoft": "fb:m.microsoft", "skype": "fb:m.skype", "tyson": "fb:m.tyson",
    "holyfield": "fb:m.holyfield", "buckeyes": "fb:m.buckeyes",
    "yankees": "fb:m.yankees", "mariners": "fb:m.mariners",
    "patriots": "fb:m.patriots", "clemens": "fb:m.clemens",
    "mcnamee": "fb:m.mcnamee", "rowling": "fb:m.rowling",
    "jeter": "fb:m.jeter", "nader": "fb:m.nader", "ali": "fb:m.ali",
    "frazier": "fb:m.frazier", "senate": "fb:m.senate",
}

records = []
_counter = [0]


def arg(surface: str, etype: str, role: int, named: bool = True) -> dict:
    out = {"surface": surface, "type": etype, "is_named": named, "role_index": role}
    if surface in KB:
        out["kb_id"] = KB[surface]
    return out


def rec(date: str, predicate: str, args: list[dict], voice: str = "active",
        modifiers: list[str] | None = None, repeat: int = 1) -> None:
    for _ in range(repeat):
        _counter[0] += 1
        records.append(
            {
                "article_id": f"a{_counter[0]:04d}",
                "date": date,
                "sentence_idx": _counter[0] % 7,
                "predicate": predicate,
                "voice": voice,
                "modifiers": modifiers or [],
                "args": args,
            }
        )


def binary(date, pred, s1, t1, s2, t2, repeat=1, named2=True, voice="active"):
    rec(date, pred, [arg(s1, t1, 1), arg(s2, t2, 2, named2)], voice=voice, repeat=repeat)


def unary(date, pred, s, t, repeat=1, voice="active", role=1):
    rec(date, pred, [arg(s, t, role)], voice=voice, repeat=repeat)


P, O, E, W, L = "person", "organization", "event", "written_work", "law"

# ---- partition 1 (03-01 .. 03-03): the swimming final --------------------
# be.champion and sell.to appear exactly once here, so when either is
# drawn as a positive the evidence supports it only through inference
binary("2021-03-01", "defeat", "phelps", P, "lochte", P, repeat=3)
binary("2021-03-02", "defeat", "phelps", P, "lochte", P, repeat=3)
binary("2021-03-02", "beat", "phelps", P, "lochte", P, repeat=3)
unary("2021-03-01", "be.winner", "phelps", P, repeat=3, voice="copular")
unary("2021-03-03", "is the winner", "phelps", P, repeat=3, voice="copular")
unary("2021-03-03", "be.champion", "phelps", P, repeat=1, voice="copular")
binary("2021-03-02", "win.in", "phelps", P, "olympics", E, repeat=3)
unary("2021-03-01", "play", "buckeyes", O, repeat=4)
unary("2021-03-03", "play", "buckeyes", O, repeat=2)
binary("2021-03-03", "hurt", "ali", P, "frazier", P, repeat=5)
binary("2021-03-01", "buy", "microsoft", O, "skype", O, repeat=6)
binary("2021-03-02", "sell.to", "skype", O, "microsoft", O, repeat=1)

# ---- partition 2 (03-04 .. 03-06): the election and the manor ------------
binary("2021-03-04", "kill", "mustard", P, "boddy", P, repeat=4)
binary("2021-03-05", "kill", "mustard", P, "boddy", P, repeat=2)
unary("2021-03-05", "die", "boddy", P, repeat=4)
unary("2021-03-06", "was killed", "boddy", P, repeat=2, voice="passive")
binary("2021-03-05", "defeat", "biden", P, "trump", P, repeat=5)
unary("2021-03-04", "is a candidate", "romney", P, repeat=6, voice="copular")
unary("2021-03-05", "be.candidate", "biden", P, repeat=5, voice="copular")
unary("2021-03-06", "be.winner", "biden", P, repeat=1, voice="copular")
rec("2021-03-04", "reject", [arg("voters", P, 1, named=False), arg("huckabee", P, 2)], repeat=6)
binary("2021-03-06", "receive.from", "jeter", P, "boss", P, repeat=5)
binary("2021-03-06", "inherit.from", "heir", P, "uncle", P, repeat=3)
binary("2021-03-05", "overwhelm", "ali", P, "foreman", P, repeat=3)
unary("2021-03-04", "die", "lurker", P, repeat=1)
unary("2021-03-05", "be.author", "chiang", P, repeat=5, voice="copular")

# ---- partition 3 (03-07 .. 03-09): the acquisition -----------------------
binary("2021-03-07", "buy", "google", O, "youtube", O, repeat=4)
binary("2021-03-08", "buy", "google", O, "youtube", O, repeat=2)
binary("2021-03-08", "sell.to", "youtube", O, "google", O, repeat=6)
binary("2021-03-07", "hurt", "tyson", P, "holyfield", P, repeat=6)
unary("2021-03-09", "play", "yankees", O, repeat=6)
unary("2021-03-08", "be.winner", "yankees", O, repeat=5, voice="copular")
unary("2021-03-08", "be.champion", "yankees", O, repeat=5, voice="copular")
unary("2021-03-07", "be.author", "king", P, repeat=5, voice="copular")
unary("2021-03-09", "fumble", "patriots", O, repeat=3)
binary("2021-03-09", "murder", "scarlett", P, "green", P, repeat=3)
binary("2021-03-07", "obliterate", "yankees", O, "mariners", O, repeat=2)
binary("2021-03-08", "obliterate", "tyson", P, "spinks", P, repeat=3)
unary("2021-03-08", "be.write-in", "nader", P, repeat=3, voice="copular")
for i, victim in enumerate(("vance", "vargas", "vickers")):
    binary("2021-03-09", "kill", f"killer{i}", P, victim, P)
    unary("2021-03-09", "die", victim, P)
    unary("2021-03-09", "was killed", victim, P, voice="passive")

# ---- partition 4 (03-10 .. 03-12): the memoir ----------------------------
# be.author appears once: the question is answerable only via the
# write(x, y) -> be.author(x) edge
binary("2021-03-10", "receive from", "clemens", P, "mcnamee", P, repeat=6)
binary("2021-03-11", "write", "rowling", P, "sorcerers stone", W, repeat=5)
unary("2021-03-11", "be.author", "rowling", P, repeat=1, voice="copular")
unary("2021-03-10", "be.champion", "ali", P, repeat=5, voice="copular")
binary("2021-03-11", "sell.to", "chelsea", O, "investor", O, repeat=4)
binary("2021-03-12", "reject", "senate", O, "stimulus bill", L, repeat=5, named2=False)
binary("2021-03-10", "burn", "smith", P, "jones", P, repeat=3)
binary("2021-03-11", "discredit", "smith", P, "jones", P, repeat=3)
unary("2021-03-12", "drown", "swimmer", P, repeat=3)
binary("2021-03-12", "overwhelm", "yankees", O, "mariners", O, repeat=2)
for i, victim in enumerate(("violet", "vernon")):
    binary("2021-03-10", "kill", f"killer{i + 3}", P, victim, P)
    unary("2021-03-10", "die", victim, P)
    unary("2021-03-10", "was killed", victim, P, voice="passive")
unary("2021-03-12", "die", "elder", P, repeat=2)
# one higher-valency record, decomposed at ingestion
rec(
    "2021-03-11", "trade",
    [arg("yankees", O, 1), arg("soriano", P, 2), arg("rangers", O, 3)],
    repeat=2,
)


def render() -> str:
    """The corpus file's text: one sorted-key JSON record per line."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(render())
    print(f"wrote {len(records)} records to {OUT}")


if __name__ == "__main__":
    main()
