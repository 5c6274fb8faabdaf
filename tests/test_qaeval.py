"""Answer models and metric harness tests."""

import datetime as dt
import re

import pytest
from hypothesis import given, settings, strategies as st

from entgraph.localgraph import (
    BB,
    BU,
    UU,
    ALL_KINDS,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
)
from entgraph.qagen import Partition, Question
from entgraph.qaeval import (
    AnswerRecord,
    ScoreFileError,
    accuracy_at_k,
    answer_exact_match,
    answer_graph,
    compatible_evidence,
    export_evidence,
    external_scores,
    filter_questions,
    pr_curve,
    read_answers,
    read_external_scores,
    write_answers,
)
from entgraph.model import Corpus, EntityId, Proposition
from entgraph.store import GraphStore

from conftest import ent, pred, prop
from oracles import (
    answer_exact_match_scan,
    answer_graph_scan,
    combine_components,
    compatible_evidence_scan,
    pr_curve_scan,
)

KILL = pred("kill", "person", "person")
DIE = pred("die.1", "person")
SING = pred("sing.1", "person")

ID1 = ArgMap.identity(1)


def question(qid, name, args, polarity="positive", types=None):
    types = types or ("person",) * len(args)
    return Question(
        id=qid,
        partition_id=0,
        predicate=pred(name, *types),
        args=tuple(ent(a) for a in args),
        polarity=polarity,
        provenance={},
    )


def evidence_partition(*props) -> Partition:
    """One partition holding every row of ``Corpus(props)``: the first
    proposition's id is ``p000000``."""
    return Partition(0, (dt.date(2021, 1, 1), dt.date(2021, 1, 3)), Corpus(props),
                     list(range(len(props))))


def kill_die_store() -> GraphStore:
    bivalent = {
        ("person", "person"): TypedSubgraph(
            ("person", "person"),
            {KILL, DIE},
            [EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.8)],
        )
    }
    return GraphStore.from_subgraphs(bivalent, {})


class TestExactMatch:
    def test_verbatim_repeat(self):
        q = question("q1", "kill", ("mustard", "boddy"))
        part = evidence_partition(prop("kill", ("mustard", "boddy")))
        rec = answer_exact_match(q, part)
        assert rec.confidence == 1.0 and rec.best_evidence == "p000000"

    def test_paraphrase_only_misses(self):
        q = question("q1", "kill", ("mustard", "boddy"))
        part = evidence_partition(prop("slay", ("mustard", "boddy")))
        assert answer_exact_match(q, part).confidence == 0.0

    def test_repeat_rate_recovered(self):
        # 30% of positives repeat verbatim in the evidence
        questions = [question(f"q{i}", "sing.1", (f"e{i}",)) for i in range(10)]
        part = evidence_partition(
            *[prop("sing.1", (f"e{i}",)) for i in range(3)],
            *[prop("hum.1", (f"e{i}",)) for i in range(3, 10)],
        )
        records = [answer_exact_match(q, part) for q in questions]
        gold = {q.id: True for q in questions}
        curve = pr_curve(records, gold)
        assert curve.max_recall == pytest.approx(0.3)


class TestAnswerGraph:
    def test_bu_answers_unary_from_binary_evidence(self):
        q = question("q1", "die.1", ("boddy",))
        part = evidence_partition(prop("kill", ("mustard", "boddy")))
        rec = answer_graph(q, part, kill_die_store(), frozenset({BU}))
        assert rec.confidence == pytest.approx(0.8)
        assert rec.best_evidence == "p000000"

    def test_max_over_evidence(self):
        weak = pred("wound", "person", "person")
        bivalent = {
            ("person", "person"): TypedSubgraph(
                ("person", "person"),
                {KILL, DIE, weak},
                [
                    EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.7),
                    EntailmentEdge(weak, DIE, BU, ArgMap.from_slot(2), 0.3),
                ],
            )
        }
        store = GraphStore.from_subgraphs(bivalent, {})
        q = question("q1", "die.1", ("boddy",))
        part = evidence_partition(
            prop("wound", ("plum", "boddy")),
            prop("kill", ("mustard", "boddy")),
        )
        rec = answer_graph(q, part, store)
        assert rec.confidence == pytest.approx(0.7)
        assert rec.best_evidence == "p000001"

    def test_no_compatible_evidence_zero(self):
        q = question("q1", "die.1", ("scarlett",))
        part = evidence_partition(prop("kill", ("mustard", "boddy")))
        rec = answer_graph(q, part, kill_die_store())
        assert rec.confidence == 0.0 and rec.best_evidence is None

    def test_components_answer_one_valency(self):
        q_binary = question("qb", "kill", ("mustard", "boddy"))
        part = evidence_partition(prop("kill", ("mustard", "boddy")))
        store = kill_die_store()
        # UU-only model abstains on binary questions even with identity evidence
        assert answer_graph(q_binary, part, store, frozenset({UU})).confidence == 0.0
        assert answer_graph(q_binary, part, store, frozenset({BB})).confidence == 1.0

    def test_identity_without_vertex_still_answers(self):
        q = question("q1", "hum.1", ("knowles",))
        part = evidence_partition(prop("hum.1", ("knowles",)))
        rec = answer_graph(q, part, kill_die_store(), frozenset({UU}))
        assert rec.confidence == 1.0

    def test_backoff_when_typed_vertex_missing(self):
        # evidence is typed (person, thing): no such subgraph, so the
        # untyped pair is averaged over the graphs that do contain it
        q = question("q1", "die.1", ("boddy",))
        part = evidence_partition(
            prop("kill", ("mustard", "boddy"), types=("person", "thing"))
        )
        rec = answer_graph(q, part, kill_die_store(), frozenset({BU}))
        assert rec.confidence == pytest.approx(0.8)
        assert rec.backed_off

    def test_monotone_in_evidence(self):
        q = question("q1", "die.1", ("boddy",))
        small = evidence_partition(prop("wound", ("plum", "boddy")))
        rec_small = answer_graph(q, small, kill_die_store())
        bigger = evidence_partition(
            prop("wound", ("plum", "boddy")),
            prop("kill", ("mustard", "boddy")),
        )
        rec_big = answer_graph(q, bigger, kill_die_store())
        assert rec_big.confidence >= rec_small.confidence


class TestCombine:
    def _rec(self, conf, model="m"):
        return AnswerRecord("q1", model, conf, "p1" if conf > 0 else None)

    def test_max_of_components(self):
        combined = combine_components(
            [self._rec(0.0), self._rec(0.6), self._rec(0.2)]
        )
        assert combined.confidence == 0.6

    def test_all_abstain(self):
        assert combine_components([self._rec(0.0), self._rec(0.0)]).confidence == 0.0

    def test_single_component_passthrough(self):
        bb = self._rec(0.45, "graph-bb")
        uu = self._rec(0.0, "graph-uu")
        combined = combine_components([bb, uu])
        assert combined.confidence == 0.45
        assert combined.best_evidence == "p1"


class TestExternalScores:
    def test_scores_ingested_unchanged(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tp1\t0.75\nq2\tp2\t0.5\n")
        scores = read_external_scores(path, {"q1": {"p1"}, "q2": {"p2"}, "q3": {"p3"}})
        qs = [question("q1", "sing.1", ("a",)), question("q2", "sing.1", ("b",)),
              question("q3", "sing.1", ("c",))]
        records = external_scores(qs, scores)
        by_id = {r.question_id: r for r in records}
        assert by_id["q1"].confidence == 0.75
        assert by_id["q2"].confidence == 0.5
        assert by_id["q3"].confidence == 0.0  # missing question

    def test_empty_file_all_zero(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("")
        records = external_scores([question("q1", "sing.1", ("a",))],
                                  read_external_scores(path, {"q1": {"p1"}}))
        assert records[0].confidence == 0.0

    def test_duplicate_rows_keep_max(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tp1\t0.2\nq1\tp1\t0.9\nq1\tp1\t0.4\n")
        scores = read_external_scores(path, {"q1": {"p1"}})
        assert scores[("q1", "p1")] == 0.9

    def test_out_of_range_rejected_with_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tp1\t0.5\nq1\tp2\t1.5\n")
        with pytest.raises(ScoreFileError, match=r"scores\.tsv:2: score 1\.5 outside"):
            read_external_scores(path, {"q1": {"p1", "p2"}})

    def test_unknown_question_rejected_with_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("question_id\tprop_id\tscore\nq1\tp1\t0.5\nzzz\tp1\t0.9\n")
        with pytest.raises(ScoreFileError, match=r"scores\.tsv:3: unknown question 'zzz'"):
            read_external_scores(path, {"q1": {"p1"}})

    def test_evidence_outside_candidates_rejected_with_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tp2\t0.5\n")
        with pytest.raises(
            ScoreFileError, match=r"scores\.tsv:1: 'p2' is not an evidence candidate of question 'q1'"
        ):
            read_external_scores(path, {"q1": {"p1"}, "q2": {"p2"}})

    def test_export_lists_same_argument_evidence(self, tmp_path):
        q = question("q1", "die.1", ("boddy",))
        part = evidence_partition(
            prop("kill", ("mustard", "boddy")),
            prop("kill", ("mustard", "plum")),
            prop("die.1", ("boddy",)),
        )
        assert compatible_evidence(q, part) == ["p000000", "p000002"]
        path = tmp_path / "export.tsv"
        export_evidence([q], {0: part}, path)
        lines = path.read_text().splitlines()
        assert lines == ["question_id\tprop_id", "q1\tp000000", "q1\tp000002"]


class TestPRCurve:
    def _records(self, confs):
        return [
            AnswerRecord(f"q{i}", "m", c, f"p{i}" if c > 0 else None)
            for i, c in enumerate(confs)
        ]

    def test_perfect_scorer(self):
        records = self._records([0.9, 0.8, 0.0, 0.0])
        gold = {"q0": True, "q1": True, "q2": False, "q3": False}
        curve = pr_curve(records, gold)
        assert all(p.precision == 1.0 for p in curve.points)
        assert curve.max_recall == 1.0

    def test_constant_scorer_on_balanced_set(self):
        records = self._records([1.0, 1.0, 1.0, 1.0])
        gold = {"q0": True, "q1": True, "q2": False, "q3": False}
        curve = pr_curve(records, gold)
        assert curve.points == [type(curve.points[0])(1.0, 0.5, 1.0)]

    def test_single_point(self):
        curve = pr_curve(self._records([0.9]), {"q0": True})
        (point,) = curve.points
        assert (point.threshold, point.precision, point.recall) == (0.9, 1.0, 1.0)

    def test_no_positives_errors(self):
        with pytest.raises(ValueError):
            pr_curve(self._records([0.9]), {"q0": False})

    def test_abstentions_never_predicted_true(self):
        records = self._records([0.0, 0.5])
        gold = {"q0": True, "q1": True}
        curve = pr_curve(records, gold)
        assert curve.max_recall == 0.5

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_recall_non_increasing_in_threshold(self, rows):
        gold = {f"q{i}": g for i, (_, g) in enumerate(rows)}
        if not any(gold.values()):
            gold["q0"] = True
        records = [
            AnswerRecord(f"q{i}", "m", c, f"p{i}" if c > 0 else None)
            for i, (c, _) in enumerate(rows)
        ]
        curve = pr_curve(records, gold)
        recalls = [p.recall for p in curve.points]
        assert recalls == sorted(recalls, reverse=True)
        thresholds = [p.threshold for p in curve.points]
        assert thresholds == sorted(thresholds)
        assert len(set(thresholds)) == len(thresholds)

    @settings(max_examples=300)
    @given(
        st.lists(
            # few distinct confidences, 0 among them, so ties and
            # abstentions are common
            st.tuples(st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0),
                      st.booleans()),
            max_size=40,
        ),
        st.integers(0, 40),
    )
    def test_sweep_matches_scan(self, rows, positive):
        gold = {f"q{i}": g for i, (_, g) in enumerate(rows)}
        if positive < len(rows):
            # a single positive: one recall step
            gold = dict.fromkeys(gold, False)
        # past the rows, a positive that no record answers
        gold[f"q{positive}"] = True
        records = [
            AnswerRecord(f"q{i}", "m", c, f"p{i}" if c > 0 else None)
            for i, (c, _) in enumerate(rows)
        ]
        curve, scan = pr_curve(records, gold), pr_curve_scan(records, gold)
        # the same integer counts and divisions: the same bits
        assert [tuple(map(float.hex, p)) for p in curve.points] == [
            tuple(map(float.hex, p)) for p in scan.points]
        assert curve.max_recall.hex() == scan.max_recall.hex()


class TestAccuracyAtK:
    def test_perfect(self):
        records = [
            AnswerRecord(f"q{i}", "m", 0.5 + i / 100, f"p{i}") for i in range(10)
        ]
        gold = {f"q{i}": True for i in range(10)}
        assert accuracy_at_k(records, gold, 5).accuracy == 1.0

    def test_top5_four_correct(self):
        confs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]
        gold = {}
        records = []
        for i, c in enumerate(confs):
            records.append(AnswerRecord(f"q{i}", "m", c, f"p{i}"))
            gold[f"q{i}"] = i != 2  # one wrong inside the top 5
        result = accuracy_at_k(records, gold, 5)
        assert result.accuracy == pytest.approx(0.8)
        assert result.k_used == 5

    def test_fewer_answered_than_k(self):
        records = [
            AnswerRecord("q0", "m", 0.9, "p0"),
            AnswerRecord("q1", "m", 0.0, None),
        ]
        gold = {"q0": True, "q1": False}
        result = accuracy_at_k(records, gold, 2000)
        assert result.k_used == 1 and result.accuracy == 1.0

    def test_stable_tie_break_by_question_id(self):
        records = [
            AnswerRecord("qb", "m", 0.5, "p1"),
            AnswerRecord("qa", "m", 0.5, "p2"),
        ]
        gold = {"qa": True, "qb": False}
        assert accuracy_at_k(records, gold, 1).accuracy == 1.0  # qa sorts first


class TestFilterQuestions:
    def test_unknown_predicates_removed_and_rebalanced(self):
        store = kill_die_store()
        qs = (
            [question(f"u-pos-{i}", "die.1", (f"e{i}",)) for i in range(4)]
            + [question(f"u-neg-{i}", "die.1", (f"x{i}",), "negative") for i in range(2)]
            + [question(f"b-pos-{i}", "kill", (f"a{i}", f"b{i}")) for i in range(3)]
            + [question(f"b-neg-{i}", "kill", (f"c{i}", f"d{i}"), "negative") for i in range(3)]
            + [question(f"gone-{i}", "vanish.1", (f"v{i}",)) for i in range(5)]
        )
        kept = filter_questions(qs, store, seed=1)
        assert all(q.predicate.name in ("die.1", "kill") for q in kept)
        counts = {}
        for q in kept:
            key = (q.predicate.valency, q.polarity)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts.values()) == {2}  # min quadrant is 2

    def test_all_present_identity_up_to_balance(self):
        store = kill_die_store()
        qs = (
            [question("u-pos", "die.1", ("e",))]
            + [question("u-neg", "die.1", ("x",), "negative")]
            + [question("b-pos", "kill", ("a", "b"))]
            + [question("b-neg", "kill", ("c", "d"), "negative")]
        )
        kept = filter_questions(qs, store, seed=0)
        assert sorted(q.id for q in kept) == ["b-neg", "b-pos", "u-neg", "u-pos"]


class TestExactSubsumption:
    @given(st.data())
    def test_graph_confidence_dominates_exact_match(self, data):
        # whenever exact match fires, the combined graph model scores 1.0
        store = kill_die_store()
        names = ["kill", "wound", "die.1", "hum.1"]
        evidence = []
        for i in range(data.draw(st.integers(1, 8))):
            name = data.draw(st.sampled_from(names))
            arity = 2 if name in ("kill", "wound") else 1
            args = tuple(
                data.draw(st.sampled_from(["a", "b", "c"])) for _ in range(arity)
            )
            evidence.append(prop(name, args))
        part = evidence_partition(*evidence)
        qname = data.draw(st.sampled_from(names))
        arity = 2 if qname in ("kill", "wound") else 1
        q = question(
            "q0",
            qname,
            tuple(data.draw(st.sampled_from(["a", "b", "c"])) for _ in range(arity)),
        )
        exact = answer_exact_match(q, part)
        graph = answer_graph(q, part, store, ALL_KINDS)
        assert graph.confidence >= exact.confidence


class TestAnswerFileRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        records = [
            AnswerRecord("q1", "graph-bb", 0.7745966692414834, "p1", False),
            AnswerRecord("q2", "graph-bb", 0.0, None, False),
            AnswerRecord("q3", "graph-bb", 0.5, "p9", True),
        ]
        path = tmp_path / "answers.csv"
        write_answers(records, path)
        again = read_answers(path)
        assert again == records

    @pytest.mark.parametrize("row, reason", [
        ("q2,graph-bb,0.0,,7", "fields ['backed_off'] differ from the written form"),
        ("q2,graph-bb,0.0,, 1", "fields ['backed_off'] differ from the written form"),
        ("q2,graph-bb,0.50,p1,0", "fields ['confidence'] differ from the written form"),
        ("q2,graph-bb,0.0,,0,x", "6 fields, not 5"),
        ("", "0 fields, not 5"),
        ("q2,graph-uu,0.0,,0", "model id 'graph-uu' is not the first row's 'graph-bb'"),
    ], ids=["backed-off-7", "backed-off-space-1", "confidence-form", "sixth-field",
            "blank-line", "mixed-model-ids"])
    def test_refuses_what_write_answers_would_not_write(self, tmp_path, row, reason):
        path = tmp_path / "answers.csv"
        write_answers([AnswerRecord("q1", "graph-bb", 0.5, "p1", True)], path)
        path.write_text(path.read_text() + row + "\r\n")
        with pytest.raises(ValueError, match=re.escape(f"answers.csv:3: bad answer row: {reason}")):
            read_answers(path)


class TestEvidenceIndex:
    """The answer models read only the evidence holding the question's first
    argument; each must give what scanning every proposition gives."""

    BINARIES = [pred(n, "person", "person") for n in ("kill", "wound", "stab")]
    UNARIES = [pred(n, "person") for n in ("die.1", "hurt.1", "fall.1")]
    # the same names under other types: no typed vertex, so the back-off answers
    ELSEWHERE = [pred("kill", "location", "location"), pred("die.1", "location"),
                 pred("wound", "person", "location")]
    # "q" and "r" are one linked entity with two surfaces: two entries of
    # one key
    Q, R = EntityId("q", "Q1", True), EntityId("r", "Q1", True)
    ENTITIES = [ent("a"), ent("b"), ent("c"), Q, R]

    def store(self, data) -> GraphStore:
        def edges(pairs, kind, maps):
            return [EntailmentEdge(p, h, kind, amap, data.draw(st.floats(0.0, 1.0)))
                    for p, h in pairs for amap in maps if data.draw(st.booleans())]

        b, u = self.BINARIES, self.UNARIES
        bivalent = TypedSubgraph(("person", "person"), b + u, (
            edges([(p, h) for p in b for h in b if p != h], BB, (ArgMap.identity(2),
                                                                  ArgMap.swap()))
            + edges([(p, h) for p in b for h in u], BU, (ArgMap.from_slot(1),
                                                         ArgMap.from_slot(2)))))
        univalent = TypedSubgraph(("person",), u, edges(
            [(p, h) for p in u for h in u if p != h], UU, (ID1,)))
        return GraphStore({bivalent.signature: bivalent, univalent.signature: univalent})

    def draw_proposition(self, data) -> Proposition:
        p = data.draw(st.sampled_from(self.BINARIES + self.UNARIES + self.ELSEWHERE))
        args = tuple(data.draw(st.sampled_from(self.ENTITIES)) for _ in range(p.valency))
        return Proposition(p, args)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_models_match_a_scan_of_all_evidence(self, data):
        store = self.store(data)
        n = data.draw(st.integers(0, 12))
        props = [self.draw_proposition(data) for _ in range(n)]
        # a row whose two argument entries share a key
        props.insert(data.draw(st.integers(0, n)), Proposition(
            data.draw(st.sampled_from(self.BINARIES)),
            tuple(data.draw(st.permutations([self.Q, self.R])))))
        part = evidence_partition(*props)
        for j in range(4):
            q = data.draw(st.sampled_from(self.BINARIES + self.UNARIES))
            args = tuple(data.draw(st.sampled_from(self.ENTITIES)) for _ in range(q.valency))
            question = Question(f"q{j}", 0, q, args, "positive", {})
            for kinds in (ALL_KINDS, frozenset({BB}), frozenset({BU}), frozenset({BU, UU})):
                assert (answer_graph(question, part, store, kinds)
                        == answer_graph_scan(question, part, store, kinds))
            assert answer_exact_match(question, part) == answer_exact_match_scan(question, part)
            assert compatible_evidence(question, part) == compatible_evidence_scan(question, part)

    def test_holding_lists_each_proposition_once_in_evidence_order(self):
        props = [prop("kill", ("a", "a")), prop("die.1", ("b",)), prop("kill", ("b", "a")),
                 prop("kill", ("c", "b")), Proposition(KILL, (self.Q, self.R))]
        part = evidence_partition(*props)
        items = [(f"p{i:06d}", p) for i, p in enumerate(props)]
        assert part.holding("a") == [items[0], items[2]]
        assert part.holding("b") == items[1:4]
        assert part.holding("Q1") == items[4:]
        assert part.holding("z") == []

    def test_answering_builds_the_propositions_of_the_asked_keys_only(self, monkeypatch):
        props = [prop("kill", ("a", "b")), prop("die.1", ("b",)), prop("kill", ("b", "a")),
                 prop("kill", ("c", "c")), Proposition(KILL, (self.Q, self.R)),
                 prop("die.1", ("c",))]
        part, store = evidence_partition(*props), kill_die_store()
        built, proposition = [], Corpus.proposition
        monkeypatch.setattr(
            Corpus, "proposition", lambda corpus, row: built.append(row) or proposition(corpus, row))
        for j, (q, args) in enumerate([(DIE, (ent("b"),)), (KILL, (ent("b"), ent("a"))),
                                       (DIE, (self.R,)), (KILL, (ent("z"), ent("a")))]):
            answer_graph(Question(f"q{j}", 0, q, args, "positive", {}), part, store)
        # each row holding "b" or "Q1" once, asked twice; no row of "c" alone
        assert built == [0, 1, 2, 4]
