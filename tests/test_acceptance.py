"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Every expected value here is produced by an independent route: a
brute-force enumerator for the inclusion oracle, literal double-loop
implementations of the score formulas, hand-built fixtures for the
harness, and closed-form solutions for the globalization quadratic.
"""

from __future__ import annotations

import datetime as dt
import math
import random
import sys
import time

from entgraph.features import FeatureConfig, build_vectors, count
from entgraph.globalgraph import GlobalConfig, globalize
from entgraph.lexicon import LexicalResource
from entgraph.localgraph import (
    BB,
    BU,
    UU,
    ALL_KINDS,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
    build_local_graphs,
    valid_maps,
)
from entgraph.qagen import (
    Partition,
    QaGenConfig,
    Question,
    generate_questions,
    partition,
    write_questions,
)
from entgraph.qaeval import (
    AnswerRecord,
    accuracy_at_k,
    answer_graph,
    pr_curve,
)
from entgraph.store import GraphStore

from conftest import corpus, ent, pred, prop
from oracles import (
    binc,
    combine_components,
    edge_positions,
    inclusion_oracle,
    lin_similarity,
    weeds_precision,
)
from test_localgraph import buy_sell_corpus, kill_die_corpus


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, f"acceptance criterion failed: {name}"


# --- 1. inclusion oracle vs independent brute force -------------------------


def brute_force_inclusion(premises, hypotheses, pairs) -> bool:
    """Literal enumeration: every premise tuple must find a hypothesis
    tuple agreeing on all mapped slots."""
    for t in premises:
        found = False
        for h in hypotheses:
            agree = True
            for premise_slot, hypothesis_slot in pairs:
                if t[premise_slot - 1] != h[hypothesis_slot - 1]:
                    agree = False
                    break
            if agree:
                found = True
                break
        if not found:
            return False
    return True


def test_oracle_equivalence_1000_corpora():
    rng = random.Random(193)
    start = time.monotonic()
    disagreements = 0
    checks = 0
    for _ in range(1000):
        n_entities = rng.randint(2, 10)
        entities = [f"e{i}" for i in range(n_entities)]
        tuple_sets: dict[tuple[str, int], set] = {}
        budget = rng.randint(8, 100)
        specs = [("b1", 2), ("b2", 2), ("u1", 1), ("u2", 1)]
        for name, arity in specs:
            n = rng.randint(0, max(1, budget // len(specs)))
            tuple_sets[(name, arity)] = {
                tuple(rng.choice(entities) for _ in range(arity)) for _ in range(n)
            }
        for (p_name, p_arity), premises in tuple_sets.items():
            for (h_name, h_arity), hypotheses in tuple_sets.items():
                for amap in valid_maps(p_arity, h_arity):
                    if not premises:
                        continue
                    checks += 1
                    fast = inclusion_oracle(premises, hypotheses, amap)
                    slow = brute_force_inclusion(premises, hypotheses, amap.pairs)
                    if fast != slow:
                        disagreements += 1
    elapsed = time.monotonic() - start
    report(
        "oracle-equivalence",
        disagreements == 0 and checks > 10000 and elapsed < 60.0,
    )


# --- 2. score formulas vs double-loop references -----------------------------


def ref_weeds(u: dict, v: dict) -> float:
    num = 0.0
    den = 0.0
    for f in u:
        den += u[f]
        for g in v:
            if g == f:
                num += u[f]
    return num / den if den else 0.0


def ref_lin(u: dict, v: dict) -> float:
    den = 0.0
    for f in u:
        den += u[f]
    for g in v:
        den += v[g]
    num = 0.0
    for f in u:
        for g in v:
            if f == g:
                num += u[f] + v[g]
    return num / den if den else 0.0


def ref_binc(u: dict, v: dict) -> float:
    return math.sqrt(ref_weeds(u, v) * ref_lin(u, v))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    if b == 0.0:
        return a == 0.0
    return abs(a - b) / abs(b) <= rel


def test_score_formula_oracle():
    rng = random.Random(77)
    features = [f"f{i}" for i in range(30)]
    ok = True
    for _ in range(1000):
        u = {
            f: rng.uniform(0.01, 5.0)
            for f in rng.sample(features, rng.randint(0, 12))
        }
        v = {
            f: rng.uniform(0.01, 5.0)
            for f in rng.sample(features, rng.randint(0, 12))
        }
        ok = ok and _close(weeds_precision(u, v), ref_weeds(u, v))
        ok = ok and _close(lin_similarity(u, v), ref_lin(u, v))
        ok = ok and _close(binc(u, v), ref_binc(u, v))
    report("score-formula-oracle", ok)


# --- 3. directionality micro-reproduction ------------------------------------


def test_kill_die_directionality():
    start = time.monotonic()
    c = kill_die_corpus()
    graphs = build_local_graphs(c)
    kill = pred("kill", "person", "person")
    die = pred("die.1", "person")
    edges = graphs[("person", "person")].find_edges(
        kill, die, ArgMap.from_slot(2)
    )
    slots = build_vectors(count(c)[1], FeatureConfig())
    forward = binc(slots[(kill, 2)], slots[(die, 1)])
    reverse = binc(slots[(die, 1)], slots[(kill, 2)])
    elapsed = time.monotonic() - start
    report(
        "directionality-kill-die",
        len(edges) == 1
        and edges[0].score >= 0.7
        and forward >= 0.7
        and reverse < forward
        and elapsed < 5.0,
    )


# --- 4. swap-map micro-reproduction ------------------------------------------


def test_buy_sell_swap_map():
    graphs = build_local_graphs(buy_sell_corpus())
    buy = pred("buy", "organization", "organization")
    sell = pred("sell.to", "organization", "organization")
    edges = graphs[("organization", "organization")].find_edges(buy, sell)
    report(
        "swap-map-buy-sell",
        len(edges) == 1
        and edges[0].arg_map == ArgMap.swap()
        and edges[0].score >= 0.7,
    )


# --- 5. globalization identity and paraphrase convergence --------------------


def _toy_paraphrase_family():
    win = pred("be.winner.1", "person")
    champ = pred("be.champion.1", "person")
    happy = pred("be.happy.1", "person")
    id1 = ArgMap.identity(1)
    edges = [
        EntailmentEdge(win, champ, UU, id1, 0.95),
        EntailmentEdge(champ, win, UU, id1, 0.95),
        EntailmentEdge(win, happy, UU, id1, 0.4),
        EntailmentEdge(champ, happy, UU, id1, 0.8),
    ]
    return {("person",): TypedSubgraph(("person",), {win, champ, happy}, edges)}, (
        win, champ, happy,
    )


def test_globalization_identity_and_convergence():
    family, (win, champ, happy) = _toy_paraphrase_family()
    config = GlobalConfig(lambda_para=0.0, lambda_cross=0.0)
    identity = globalize(family, config)
    pairs = [
        (family[sig].edges[i], identity.subgraphs[sig].edges[i])
        for sig, i in edge_positions(family)
    ]
    identity_ok = len(pairs) == 4 and all(
        (final.premise, final.hypothesis, final.kind, final.arg_map)
        == (local.premise, local.hypothesis, local.kind, local.arg_map)
        and abs(final.score - local.score) <= 1e-9
        for local, final in pairs
    )

    family, (win, champ, happy) = _toy_paraphrase_family()
    big = globalize(
        family,
        GlobalConfig(lambda_para=1e5, lambda_cross=0.0),
    )
    sub = big.subgraphs[("person",)]
    low = sub.find_edges(win, happy)[0].score
    high = sub.find_edges(champ, happy)[0].score
    converged_ok = (
        abs(low - 0.6) <= 1e-3
        and abs(high - 0.6) <= 1e-3
        and big.iterations_run == 1
    )
    report("globalization-identity-and-mean", identity_ok and converged_ok)


# --- 6. back-off averaging ----------------------------------------------------


def test_backoff_averaging():
    hire_pp = pred("hire", "person", "person")
    pay_pp = pred("pay", "person", "person")
    hire_oo = pred("hire", "organization", "organization")
    pay_oo = pred("pay", "organization", "organization")
    id2 = ArgMap.identity(2)
    bivalent = {
        ("person", "person"): TypedSubgraph(
            ("person", "person"), {hire_pp, pay_pp},
            [EntailmentEdge(hire_pp, pay_pp, BB, id2, 0.4)],
        ),
        ("organization", "organization"): TypedSubgraph(
            ("organization", "organization"), {hire_oo, pay_oo},
            [EntailmentEdge(hire_oo, pay_oo, BB, id2, 0.8)],
        ),
    }
    store = GraphStore.from_subgraphs(bivalent, {})
    result = store.backoff_score("hire", 2, ("x", "y"), "pay", 2, ("x", "y"))
    report(
        "backoff-averaging",
        result.backed_off and abs(result.score - 0.6) <= 1e-9,
    )


# --- 7. question generation contract suite ------------------------------------


def synthetic_news_corpus(n_target: int = 5000, seed: int = 4242):
    """Dated story-structured corpus large enough to exercise generation."""
    rng = random.Random(seed)
    binaries = ["kill", "hurt", "defeat", "receive.from", "reject", "chase"]
    unaries = ["die", "play", "be.candidate", "cheer"]
    support = [
        ("murder", 2), ("burn", 2), ("obliterate", 2), ("overwhelm", 2),
        ("inherit.from", 2), ("drown", 1), ("fumble", 1), ("be.write-in", 1),
        ("discredit", 2),
    ]
    people = [f"person{i}" for i in range(60)]
    props = []
    day0 = dt.date(2021, 1, 1)

    def mk(name, valency, args, date):
        if valency == 2:
            return prop(name, args, date=date.isoformat())
        lemma = name if name.startswith("be.") else name
        return prop(f"{lemma}.1", args, date=date.isoformat())

    n_days = 60
    while len(props) < n_target - len(support) * 2:
        day = day0 + dt.timedelta(days=rng.randrange(n_days))
        window = day0 + dt.timedelta(days=((day - day0).days // 3) * 3)
        story_pair = (
            people[(window - day0).days % len(people)],
            people[((window - day0).days + 7) % len(people)],
        )
        story_entity = people[((window - day0).days + 31) % len(people)]
        roll = rng.random()
        if roll < 0.3:
            name = rng.choice(binaries)
            props.append(mk(name, 2, story_pair, day))
        elif roll < 0.5:
            name = rng.choice(unaries)
            props.append(mk(name, 1, (story_entity,), day))
        elif roll < 0.75:
            name = rng.choice(binaries)
            args = (rng.choice(people), rng.choice(people))
            props.append(mk(name, 2, args, day))
        else:
            name = rng.choice(unaries)
            props.append(mk(name, 1, (rng.choice(people),), day))
    for name, valency in support:
        for _ in range(2):
            day = day0 + dt.timedelta(days=rng.randrange(n_days))
            args = tuple(rng.sample(people, valency))
            props.append(mk(name, valency, args, day))
    return corpus(*props)


def test_qagen_contract_suite(tmp_path):
    start = time.monotonic()
    c = synthetic_news_corpus()
    assert len(c) >= 5000
    lex = LexicalResource.fixture()
    config = QaGenConfig(seed=31, positives_per_partition=10)
    qs = generate_questions(c, lex, config)

    parts, _ = partition(c, config.window_days)
    windows_ok = all((p.date_range[1] - p.date_range[0]).days <= 2 for p in parts)
    ranges = sorted(p.date_range for p in parts)
    disjoint_ok = all(h1 < l2 for (_, h1), (l2, _) in zip(ranges, ranges[1:]))

    full_partition_props = {
        p.id: {(pr.predicate.name, pr.predicate.valency, pr.arg_keys)
               for _, pr in p.propositions}
        for p in parts
    }
    negatives = [q for q in qs.questions if q.polarity == "negative"]
    no_leak_ok = all(
        (q.predicate.name, q.predicate.valency, tuple(a.key for a in q.args))
        not in full_partition_props[q.partition_id]
        for q in negatives
    )
    corpus_occurrence_ok = all(
        c.untyped_index.get(q.predicate.untyped, 0) >= 1 for q in negatives
    )

    quadrants: dict = {}
    for q in qs.questions:
        key = (q.predicate.valency, q.polarity)
        quadrants[key] = quadrants.get(key, 0) + 1
    balanced_ok = len(quadrants) == 4 and len(set(quadrants.values())) == 1
    nonempty_ok = len(qs.questions) >= 8 and len(negatives) > 0

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_questions(qs, a)
    write_questions(generate_questions(c, lex, config), b)
    deterministic_ok = a.read_bytes() == b.read_bytes()

    elapsed = time.monotonic() - start
    report(
        "qagen-contract-suite",
        windows_ok and disjoint_ok and no_leak_ok and corpus_occurrence_ok
        and balanced_ok and nonempty_ok and deterministic_ok and elapsed < 30.0,
    )


# --- 8. evaluation-harness correctness -----------------------------------------


def harness_fixture():
    """40 hand-labeled questions with hand-scored per-component records.

    20 unary (10 positive / 10 negative) and 20 binary (10/10). Component
    confidences follow the valency split: BB answers binaries, UU and BU
    answer unaries.
    """
    rows = []
    # unary positives: UU strong on 6, BU strong on 8 (overlapping)
    for i in range(10):
        uu = 0.9 - i * 0.1 if i < 6 else 0.0
        bu = 0.85 - i * 0.05 if i < 8 else 0.0
        rows.append((f"u-pos-{i:02d}", 1, True, 0.0, max(uu, 0.0), max(bu, 0.0)))
    # unary negatives: a couple of false positives
    for i in range(10):
        uu = 0.45 if i == 0 else 0.0
        bu = 0.35 if i == 1 else 0.0
        rows.append((f"u-neg-{i:02d}", 1, False, 0.0, uu, bu))
    # binary positives: BB strong on 7
    for i in range(10):
        bb = 0.95 - i * 0.1 if i < 7 else 0.0
        rows.append((f"b-pos-{i:02d}", 2, True, max(bb, 0.0), 0.0, 0.0))
    # binary negatives: one false positive
    for i in range(10):
        bb = 0.5 if i == 0 else 0.0
        rows.append((f"b-neg-{i:02d}", 2, False, bb, 0.0, 0.0))
    return rows


def _records(rows, which: int, model: str):
    return [
        AnswerRecord(qid, model, conf, f"p-{qid}" if conf > 0 else None)
        for qid, _, _, *confs in rows
        for conf in [confs[which]]
    ]


def hand_pr_points(scored, n_pos):
    """Independent sweep used as the expected value."""
    thresholds = sorted({c for c, _ in scored if c > 0})
    out = []
    for t in thresholds:
        predicted = [(c, g) for c, g in scored if c >= t and c > 0]
        tp = sum(1 for _, g in predicted if g)
        fp = len(predicted) - tp
        precision = tp / (tp + fp) if predicted else 0.0
        out.append((t, precision, tp / n_pos))
    return out


def test_evaluation_harness_matches_hand_computation():
    rows = harness_fixture()
    gold = {qid: g for qid, _, g, *_ in rows}
    n_pos = sum(1 for v in gold.values() if v)

    ok = True
    per_component_recall = {}
    for which, model in ((0, "graph-bb"), (1, "graph-uu"), (2, "graph-bu")):
        records = _records(rows, which, model)
        curve = pr_curve(records, gold)
        expected = hand_pr_points(
            [(r.confidence, gold[r.question_id]) for r in records], n_pos
        )
        got = [(p.threshold, p.precision, p.recall) for p in curve.points]
        ok = ok and got == expected
        per_component_recall[model] = curve.max_recall

    # component ceiling: single-valency models cannot exceed 50% recall
    ok = ok and per_component_recall["graph-bb"] <= 0.5
    ok = ok and per_component_recall["graph-uu"] <= 0.5
    ok = ok and per_component_recall["graph-bu"] <= 0.5

    # spot-check one hand-computed point: BB at threshold 0.5 answers the
    # five binary positives scored 0.95..0.55 plus the one negative at 0.5
    bb_records = _records(rows, 0, "graph-bb")
    curve = pr_curve(bb_records, gold)
    point = next(p for p in curve.points if p.threshold == 0.5)
    ok = ok and point.precision == 5 / 6 and point.recall == 5 / 20

    # accuracy@K against a by-hand sort (ties broken by question id)
    combined = [
        combine_components(
            [
                _records(rows, 0, "m")[i],
                _records(rows, 1, "m")[i],
                _records(rows, 2, "m")[i],
            ]
        )
        for i in range(len(rows))
    ]
    answered = sorted(
        (r for r in combined if r.confidence > 0),
        key=lambda r: (-r.confidence, r.question_id),
    )
    for k in (5, 10, 2000):
        got = accuracy_at_k(combined, gold, k)
        top = answered[:k]
        expected_acc = sum(1 for r in top if gold[r.question_id]) / len(top)
        ok = ok and got.accuracy == expected_acc and got.k_used == len(top)

    report("evaluation-harness", ok)


# --- 9. additivity of cross-valency evidence -----------------------------------


def additivity_setup():
    props = []
    for i in range(1, 5):
        props.append(prop("defeat", (f"w{i}", f"l{i}")))
        props.append(prop("be.winner.1", (f"w{i}",)))
        props.append(prop("be.champion.1", (f"w{i}",)))
    for i in range(1, 4):
        props.append(prop("obliterate", (f"w{i}", f"l{i}")))
    # fillers keep both the slot-mode and pair-mode PMI strictly positive
    for i in range(24):
        props.append(prop("chatter.1", (f"x{i}",)))
    for i in range(20):
        props.append(prop("mingle", (f"ma{i}", f"mb{i}")))
    graph_corpus = corpus(*props)
    graphs = build_local_graphs(graph_corpus)
    store = GraphStore(graphs)

    evidence_props = [
        ("p1", prop("defeat", ("alice", "bob"))),
        ("p2", prop("be.winner.1", ("carol",))),
        ("p3", prop("obliterate", ("dan", "eve"))),
    ]
    part = Partition(0, (dt.date(2021, 1, 1), dt.date(2021, 1, 3)), evidence_props)

    def q(qid, name, args, polarity, types=None):
        types = types or ("person",) * len(args)
        return Question(qid, 0, pred(name, *types), tuple(ent(a) for a in args),
                        polarity, {})

    questions = [
        q("q1", "be.winner.1", ("alice",), "positive"),    # only binary evidence
        q("q2", "be.champion.1", ("carol",), "positive"),  # only unary evidence
        q("q3", "defeat", ("dan", "eve"), "positive"),     # only BB evidence
        q("n1", "be.winner.1", ("zoe",), "negative"),
        q("n2", "be.champion.1", ("yuri",), "negative"),
        q("n3", "defeat", ("xena", "walt"), "negative"),
    ]
    return store, part, questions


def test_additivity_of_bu_evidence():
    store, part, questions = additivity_setup()
    gold = {q.id: q.polarity == "positive" for q in questions}

    def max_recall(kinds):
        records = [answer_graph(q, part, store, kinds) for q in questions]
        curve = pr_curve(records, gold)
        return curve.max_recall

    uu_only = max_recall(frozenset({UU}))
    uu_bu = max_recall(frozenset({UU, BU}))
    bb_only = max_recall(frozenset({BB}))
    bu_only = max_recall(frozenset({BU}))
    full = max_recall(ALL_KINDS)

    report(
        "additivity-bu-evidence",
        uu_bu > uu_only
        and full >= uu_bu
        and full >= bb_only
        and full >= uu_only
        and full >= bu_only
        and full == 1.0,
    )


# --- 10. end-to-end smoke -------------------------------------------------------


def test_end_to_end_smoke(tmp_path):
    from entgraph.cli import EXIT_OK, main

    out = tmp_path / "pipeline"
    start = time.monotonic()
    ok = main(["ingest", "--out", str(out)]) == EXIT_OK
    ok = ok and main(["build-local", "--out", str(out)]) == EXIT_OK
    ok = ok and main(["globalize", "--out", str(out)]) == EXIT_OK
    ok = ok and main(["gen-questions", "--out", str(out)]) == EXIT_OK
    ok = ok and main(["answer", "--out", str(out), "--model", "graph"]) == EXIT_OK
    ok = ok and main(["answer", "--out", str(out), "--model", "exact"]) == EXIT_OK
    ok = ok and main(["evaluate", "--out", str(out), "--k", "10"]) == EXIT_OK
    elapsed = time.monotonic() - start

    graph_files = list((out / "graphs" / "global").glob("*.graph"))
    edges = sum(
        1
        for p in graph_files
        for line in p.read_text().splitlines()
        if line.startswith("E\t")
    )
    questions = (out / "questions.jsonl").read_text().splitlines()
    pr_files = list((out / "report").glob("pr-*.csv"))
    pr_rows = sum(len(p.read_text().splitlines()) - 1 for p in pr_files)

    report(
        "end-to-end-smoke",
        ok
        and elapsed < 120.0
        and len(graph_files) > 0
        and edges > 0
        and len(questions) - 1 >= 8
        and len(pr_files) >= 2
        and pr_rows > 0,
    )
