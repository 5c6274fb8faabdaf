"""Seeded, deterministic input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical files. The program under test only ever sees the files
written here.

* ``qa_sample_records``: the shipped sample corpus replicated ``copies``
  times. Copy ``c`` is shifted ``12 * c`` days (the sample spans 12 days,
  so the 3-day question partitions of different copies never mix) and
  every entity gets a per-copy name. The seed salts those names; the
  copy index leads the salt, so names sort the same way for every seed
  and graph scores come out bit-identical, which lets the outputs be
  compared with a stored reference.
* ``dense_records``: a synthetic corpus with Zipf-skewed lemma and entity
  frequencies. Its lemmas are outside the bundled WordNet fixture, so it
  yields dense typed subgraphs but no questions. Its ``seed`` draws the
  corpus; ``name_salt`` only renames entities.
* ``query_stream``: the closed-loop query mix for the dense
  workload, drawn from the corpus and the global graph files.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import random
from pathlib import Path

SAMPLE = (Path(__file__).resolve().parent.parent / "src" / "entgraph" / "data"
          / "sample" / "propositions.jsonl")
COPY_DAYS = 12
DENSE_TYPES = ("person", "organization", "location")
START = dt.date(2021, 1, 1)


def copy_tag(seed: int, copy: int) -> str:
    """Per-copy entity suffix: copy index first, then an 8-hex seed salt."""
    salt = hashlib.blake2b(f"{seed}/{copy}".encode(), digest_size=4).hexdigest()
    return f"~{copy:04d}{salt}"


def qa_sample_records(sample_lines: list[str], copies: int, seed: int) -> list[str]:
    """The sample corpus replicated with shifted dates and renamed entities."""
    base = [json.loads(line) for line in sample_lines if line.strip()]
    out = []
    for c in range(copies):
        tag = copy_tag(seed, c)
        shift = dt.timedelta(days=COPY_DAYS * c)
        for rec in base:
            rec = dict(rec)
            rec["article_id"] = f"{rec['article_id']}-{c}"
            if rec.get("date"):
                rec["date"] = (dt.date.fromisoformat(rec["date"]) + shift).isoformat()
            args = []
            for a in rec["args"]:
                a = dict(a, surface=a["surface"] + tag)
                if "kb_id" in a:
                    a["kb_id"] += tag
                args.append(a)
            rec["args"] = args
            out.append(json.dumps(rec, sort_keys=True))
    return out


def _zipf_cum(n: int, skew: float) -> list[float]:
    total, cum = 0.0, []
    for k in range(n):
        total += 1.0 / (k + 1) ** skew
        cum.append(total)
    return cum


def dense_records(
    propositions: int,
    lemmas: int,
    entities: int,
    types: tuple[str, ...] = DENSE_TYPES,
    days: int = 28,
    binary_share: float = 0.6,
    skew: float = 1.0,
    seed: int = 0,
    name_salt: str = "",
) -> list[str]:
    """Synthetic normalized proposition records, one JSON line each.

    Lemmas and entities are drawn with Zipf(skew) weights over a seeded
    random rank order; each entity has one type; unary records keep role 1
    or 2. Entity names end in ``name_salt``. Records are already in the
    normalized form ``ingest`` writes back, so its ``corpus.jsonl`` equals
    this file byte for byte.
    """
    rng = random.Random(seed)
    lemma_names = [f"rel{i:03d}" for i in range(lemmas)]
    ent_names = [f"ent{i:04d}{name_salt}" for i in range(entities)]
    rng.shuffle(lemma_names)
    rng.shuffle(ent_names)
    # types go round-robin down the frequency ranks, so every seed gives
    # the type signatures the same expected density
    ent_type = {e: types[rank % len(types)] for rank, e in enumerate(ent_names)}
    lemma_cum = _zipf_cum(lemmas, skew)
    ent_cum = _zipf_cum(entities, skew)

    def arg(name: str, role: int) -> dict:
        return {"is_named": True, "role_index": role, "surface": name,
                "type": ent_type[name]}

    out = []
    for i in range(propositions):
        lemma = rng.choices(lemma_names, cum_weights=lemma_cum)[0]
        date = START + dt.timedelta(days=rng.randrange(days))
        first = rng.choices(ent_names, cum_weights=ent_cum)[0]
        if rng.random() < binary_share:
            second = first
            while second == first:
                second = rng.choices(ent_names, cum_weights=ent_cum)[0]
            args = [arg(first, 1), arg(second, 2)]
        else:
            args = [arg(first, rng.choice((1, 2)))]
        rec = {"article_id": f"d{i:06d}", "date": date.isoformat(), "sentence_idx": 0,
               "predicate": lemma, "voice": "active", "modifiers": [], "args": args}
        out.append(json.dumps(rec, sort_keys=True))
    return out


def record_token(rec: dict) -> tuple[str, tuple[str, ...]]:
    """(predicate token, argument keys) of a normalized record."""
    args = sorted(rec["args"], key=lambda a: a["role_index"])
    name = rec["predicate"]
    if len(args) == 1:
        name += f".{args[0]['role_index']}"
    token = "#".join([name] + [a["type"] for a in args])
    return token, tuple(a.get("kb_id", a["surface"]) for a in args)


def query_stream(corpus_lines: list[str], graphs, n_queries: int, composed_share: float,
                 seed: int) -> list[list]:
    """Seeded closed-loop query mix over parsed global graphs.

    ``graphs`` is an ``oracle.Graphs``. Returns JSON-ready queries:

    * ``["ent", premise_token, premise_args, hypothesis_token, hypothesis_args]``
      for ``GraphStore.entailment_score`` (direct BB/UU, or BU with
      composition);
    * ``["back", premise_name, premise_valency, premise_args,
      hypothesis_name, hypothesis_valency, hypothesis_args]`` for
      ``GraphStore.backoff_score``.

    Premises are corpus propositions, drawn by frequency. As
    ``qaeval.answer_graph`` does with evidence, a premise whose predicate
    has no typed vertex gets a back-off query, so back-off queries take the
    corpus share of such propositions. Of the typed queries,
    ``composed_share`` are BU queries with composition (binary premises)
    and the rest direct BB/UU queries. Hypotheses are mostly neighbours of
    the premise (so queries find edges) and sometimes random vertices of
    the same subgraph (misses).
    """
    rng = random.Random(seed)
    typed, binaries, untyped = [], [], []
    for line in corpus_lines:
        token, keys = record_token(json.loads(line))
        if graphs.has_vertex(token):
            typed.append((token, keys))
            if len(keys) == 2:
                binaries.append((token, keys))
        else:
            untyped.append((token, keys))
    if not (binaries and untyped):
        raise ValueError("corpus too small for the query mix")
    n_backoff = round(n_queries * len(untyped) / (len(typed) + len(untyped)))
    n_composed = round((n_queries - n_backoff) * composed_share)

    queries = []
    for _ in range(n_queries - n_backoff - n_composed):
        token, keys = rng.choice(typed)
        hyp_pool = graphs.out_targets(token, "BB" if len(keys) == 2 else "UU")
        if not hyp_pool or rng.random() < 0.2:
            hyp_pool = graphs.vertices_like(token)
        hyp, amap = rng.choice(hyp_pool)
        hyp_args = list(keys[::-1]) if amap == "1:2,2:1" else list(keys)
        queries.append(["ent", token, list(keys), hyp, hyp_args])
    for _ in range(n_composed):
        token, keys = rng.choice(binaries)
        slot = rng.choice((1, 2))
        hyp_pool = graphs.two_hop_targets(token, slot)
        if not hyp_pool or rng.random() < 0.2:
            hyp_pool = graphs.unaries_of(token, slot)
        queries.append(["ent", token, list(keys), rng.choice(hyp_pool), [keys[slot - 1]]])
    for _ in range(n_backoff):
        token, keys = rng.choice(untyped)
        name, valency = token.split("#")[0], len(keys)
        hyp_pool = graphs.untyped_targets(name, valency) or [(name, valency, "1:1")]
        hyp_name, hyp_valency, amap = rng.choice(hyp_pool)
        if hyp_valency == 1:
            hyp_args = [keys[int(amap[0]) - 1]]
        else:
            hyp_args = list(keys[::-1]) if amap == "1:2,2:1" else list(keys)
        queries.append(["back", name, valency, list(keys), hyp_name, hyp_valency, hyp_args])
    rng.shuffle(queries)
    return queries


def write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
