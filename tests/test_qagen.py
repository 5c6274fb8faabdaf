"""Question generation tests: partitioning, selection, negatives, balance."""

import datetime as dt
import json
import random

import pytest
from hypothesis import given, strategies as st

from entgraph.lexicon import LexicalResource
from entgraph.qagen import (
    QaGenConfig,
    Question,
    balance,
    generate_negatives,
    generate_questions,
    partition,
    read_evidence,
    read_questions,
    select_positives,
    write_evidence,
    write_questions,
)

from conftest import corpus, ent, pred, prop


def dated_props(days: list[str], name="sing.1", entity="knowles"):
    return [
        prop(name, (entity,), date=d, article=f"a{i}", idx=i)
        for i, d in enumerate(days)
    ]


class TestPartition:
    def test_nine_days_three_partitions(self):
        days = [f"2021-01-{d:02d}" for d in range(1, 10)]
        parts, undated = partition(corpus(*dated_props(days)))
        assert len(parts) == 3
        assert undated == 0

    def test_single_day_single_partition(self):
        parts, _ = partition(corpus(*dated_props(["2021-01-01"])))
        assert len(parts) == 1

    def test_undated_excluded_and_counted(self):
        props = dated_props(["2021-01-01"]) + [prop("sing.1", ("x",))]
        parts, undated = partition(corpus(*props))
        assert undated == 1
        assert sum(len(p.propositions) for p in parts) == 1

    def test_gap_days_skip_empty_windows(self):
        parts, _ = partition(corpus(*dated_props(["2021-01-01", "2021-01-20"])))
        assert len(parts) == 2
        assert parts[0].id != parts[1].id

    def test_49_partition_configuration(self):
        # a 147-day span at the 3-day window yields 49 partitions
        days = [
            (dt.date(2021, 1, 1) + dt.timedelta(days=i)).isoformat()
            for i in range(147)
        ]
        parts, _ = partition(corpus(*dated_props(days)))
        assert len(parts) == 49

    @given(
        st.lists(
            st.dates(dt.date(2021, 1, 1), dt.date(2021, 3, 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_windows_disjoint_and_covering(self, dates):
        props = [
            prop("sing.1", (f"e{i}",), date=d.isoformat()) for i, d in enumerate(dates)
        ]
        parts, undated = partition(corpus(*props))
        assert undated == 0
        assert sum(len(p.propositions) for p in parts) == len(dates)
        for p in parts:
            lo, hi = p.date_range
            assert (hi - lo).days == 2
            for _, pr in p.propositions:
                assert lo <= pr.date <= hi
        ranges = sorted(p.date_range for p in parts)
        for (l1, h1), (l2, h2) in zip(ranges, ranges[1:]):
            assert h1 < l2


def selection_corpus():
    """One partition (Jan 1-3) with controlled mention counts.

    - pair (a, b) with 'hire': 6 mentions, hire corpus count 11 -> eligible
    - pair (c, d) with 'hire': 5 mentions -> pair below star threshold
    - pair (a, b) with 'scorn': 6 mentions, scorn corpus count 10 -> predicate filtered
    - entity e with 'cheer.1': 8 mentions, cheer corpus count 12 -> eligible
    """
    props = []
    for i in range(6):
        props.append(prop("hire", ("a", "b"), date="2021-01-01", article=f"h{i}"))
    for i in range(5):
        props.append(prop("hire", ("c", "d"), date="2021-01-02", article=f"g{i}"))
    for i in range(6):
        props.append(prop("scorn", ("a", "b"), date="2021-01-01", article=f"s{i}"))
    for i in range(8):
        props.append(prop("cheer.1", ("e",), date="2021-01-03", article=f"c{i}"))
    # out-of-window occurrences push corpus counts without touching the partition
    for i in range(4):
        props.append(prop("scorn", ("x", "y"), date="2021-02-01", article=f"sx{i}"))
    for i in range(4):
        props.append(prop("cheer.1", ("z",), date="2021-02-01", article=f"cx{i}"))
    return corpus(*props)


class TestSelectPositives:
    def _first_partition(self, c):
        parts, _ = partition(c)
        return parts[0]

    def test_star_and_predicate_thresholds(self):
        c = selection_corpus()
        part = self._first_partition(c)
        sel = select_positives(part, c, n=100, rng=random.Random(1))
        names = {q.predicate.name for q in sel.questions}
        assert "hire" in names            # pair (a,b) 6x, hire corpus 11
        assert "cheer.1" in names         # entity e 8x, cheer corpus 12
        assert "scorn" not in names       # corpus count 10 <= 10
        hire_pairs = {
            tuple(a.key for a in q.args)
            for q in sel.questions
            if q.predicate.name == "hire"
        }
        assert ("c", "d") not in hire_pairs  # pair seen 5x only

    def test_chosen_removed_from_evidence(self):
        c = selection_corpus()
        part = self._first_partition(c)
        sel = select_positives(part, c, n=3, rng=random.Random(7))
        evidence_ids = {pid for pid, _ in sel.evidence.propositions}
        for q in sel.questions:
            assert q.provenance["source_prop"] not in evidence_ids
        assert len(sel.evidence.propositions) == len(part.propositions) - 3

    def test_shortfall_flagged(self):
        c = selection_corpus()
        part = self._first_partition(c)
        sel = select_positives(part, c, n=500, rng=random.Random(7))
        assert sel.shortfall
        assert len(sel.questions) == 14  # 6 hire + 8 cheer

    def test_dominant_entity_claims_all_positives(self):
        props = [
            prop("cheer.1", ("star",), date="2021-01-01", article=f"a{i}", idx=i)
            for i in range(8)
        ] + [
            prop("cheer.1", (f"nobody{i}",), date="2021-01-02", article=f"b{i}")
            for i in range(4)
        ]
        c = corpus(*props)
        part, _ = partition(c)
        sel = select_positives(part[0], c, predicate_min=12, n=4, rng=random.Random(3))
        assert len(sel.questions) == 4
        for q in sel.questions:
            assert q.args[0].key == "star"


@pytest.fixture(scope="module")
def lex():
    return LexicalResource.fixture()


class TestGenerateNegatives:

    def _positive_from(self, c, part, name, args):
        return Question(
            id="q000-pos0000",
            partition_id=part.id,
            predicate=pred(name, *["person"] * len(args)),
            args=tuple(ent(a) for a in args),
            polarity="positive",
            provenance={"source_prop": "p000000"},
        )

    def test_troponym_negative_survives(self, lex):
        props = [
            prop("hurt", ("a", "b"), date="2021-01-01"),
            prop("burn", ("x", "y"), date="2021-02-01"),  # other partition
        ]
        c = corpus(*props)
        parts, _ = partition(c)
        positive = self._positive_from(c, parts[0], "hurt", ("a", "b"))
        negatives, stats = generate_negatives([positive], lex, parts[0], c)
        assert len(negatives) == 1
        neg = negatives[0]
        assert neg.predicate.name == "burn"
        assert neg.polarity == "negative"
        assert neg.provenance["source_positive"] == positive.id
        assert neg.provenance["relation"] == "troponym:hurt->burn"
        assert stats.emitted == 1

    def test_in_partition_candidate_screened(self, lex):
        props = [
            prop("die.1", ("e",), date="2021-01-01"),
            prop("drown.1", ("e",), date="2021-01-01"),  # same partition, same args
            prop("drown.1", ("f",), date="2021-02-01"),
        ]
        c = corpus(*props)
        parts, _ = partition(c)
        positive = self._positive_from(c, parts[0], "die.1", ("e",))
        negatives, stats = generate_negatives([positive], lex, parts[0], c)
        assert negatives == []
        assert stats.screened_in_partition == 1

    def test_zero_corpus_candidate_screened(self, lex):
        props = [prop("receive.from", ("a", "b"), date="2021-01-01")]
        c = corpus(*props)
        parts, _ = partition(c)
        positive = self._positive_from(c, parts[0], "receive.from", ("a", "b"))
        negatives, stats = generate_negatives([positive], lex, parts[0], c)
        assert negatives == []
        assert stats.screened_zero_corpus == 1
        assert stats.rates()["zero_corpus_rate"] == 1.0

    def test_positive_without_substitutes_logged(self, lex):
        props = [prop("quaff", ("a", "b"), date="2021-01-01")]
        c = corpus(*props)
        parts, _ = partition(c)
        positive = self._positive_from(c, parts[0], "quaff", ("a", "b"))
        negatives, stats = generate_negatives([positive], lex, parts[0], c)
        assert negatives == []
        assert stats.positives_without_substitutes == 1

    def test_unary_keeps_case_marker(self, lex):
        props = [
            prop("die.1", ("e",), date="2021-01-01"),
            prop("drown.1", ("f",), date="2021-02-01"),
        ]
        c = corpus(*props)
        parts, _ = partition(c)
        positive = self._positive_from(c, parts[0], "die.1", ("e",))
        negatives, _ = generate_negatives([positive], lex, parts[0], c)
        assert negatives[0].predicate.name == "drown.1"
        assert negatives[0].predicate.case_marker == ".1"


def _questions(valency, polarity, n):
    types = ("person",) * valency
    return [
        Question(
            id=f"{'u' if valency == 1 else 'b'}-{polarity[:3]}-{i:04d}",
            partition_id=0,
            predicate=pred("sing.1" if valency == 1 else "hire", *types),
            args=tuple(ent(f"e{i}") for _ in range(valency)),
            polarity=polarity,
            provenance={},
        )
        for i in range(n)
    ]


class TestBalance:
    def test_full_quadrants(self):
        out, warned = balance(
            _questions(1, "positive", 100) + _questions(2, "positive", 100),
            _questions(1, "negative", 100) + _questions(2, "negative", 100),
            random.Random(0),
        )
        assert len(out) == 400 and not warned

    def test_min_quadrant_rule(self):
        out, warned = balance(
            _questions(1, "positive", 100) + _questions(2, "positive", 100),
            _questions(1, "negative", 50) + _questions(2, "negative", 100),
            random.Random(0),
        )
        assert len(out) == 200 and not warned
        counts = {}
        for q in out:
            counts[(q.predicate.valency, q.polarity)] = (
                counts.get((q.predicate.valency, q.polarity), 0) + 1
            )
        assert set(counts.values()) == {50}

    def test_empty_quadrant_warns(self):
        out, warned = balance(
            _questions(1, "positive", 10) + _questions(2, "positive", 10),
            _questions(2, "negative", 10),
            random.Random(0),
        )
        assert out == [] and warned

    def test_deterministic_under_seed(self):
        pos = _questions(1, "positive", 30) + _questions(2, "positive", 30)
        neg = _questions(1, "negative", 20) + _questions(2, "negative", 25)
        a, _ = balance(pos, neg, random.Random(42))
        b, _ = balance(pos, neg, random.Random(42))
        assert [q.id for q in a] == [q.id for q in b]


class TestEndToEndGeneration:
    def _corpus(self):
        props = []
        # partition 1: hurt story, partition 2: burn story (for negatives)
        for i in range(6):
            props.append(prop("hurt", ("a", "b"), date="2021-01-01", article=f"h{i}"))
            props.append(prop("die.1", ("a",), date="2021-01-02", article=f"d{i}"))
        for i in range(6):
            props.append(prop("burn", ("p", "q"), date="2021-01-10", article=f"x{i}"))
            props.append(prop("drown.1", ("p",), date="2021-01-11", article=f"y{i}"))
        for i in range(5):
            props.append(prop("hurt", ("m", "n"), date="2021-01-10", article=f"z{i}"))
            props.append(prop("die.1", ("q",), date="2021-01-12", article=f"w{i}"))
        return corpus(*props)

    def test_generate_and_round_trip(self, tmp_path):
        c = self._corpus()
        lex = LexicalResource.fixture()
        config = QaGenConfig(entity_min=6, predicate_min=11, positives_per_partition=4, seed=5)
        qs = generate_questions(c, lex, config)
        assert qs.manifest["questions"] == len(qs.questions)
        assert qs.manifest["seed"] == 5
        # negatives never occur in their own partition, and occur corpus-wide
        for q in qs.questions:
            if q.polarity != "negative":
                continue
            part = next(p for p in qs.evidence if p.id == q.partition_id)
            for _, pr in part.propositions:
                assert not (
                    pr.predicate.name == q.predicate.name
                    and pr.arg_keys == tuple(a.key for a in q.args)
                )
            assert c.untyped_index[q.predicate.untyped] >= 1

        qpath = tmp_path / "questions.jsonl"
        epath = tmp_path / "evidence.jsonl"
        write_questions(qs, qpath)
        write_evidence(qs.evidence, epath)
        questions2, manifest2 = read_questions(qpath)
        assert [q.id for q in questions2] == [q.id for q in qs.questions]
        assert manifest2["seed"] == 5
        evidence2 = read_evidence(epath)
        assert [p.id for p in evidence2] == [p.id for p in qs.evidence]
        assert [len(p.propositions) for p in evidence2] == [
            len(p.propositions) for p in qs.evidence
        ]

    def test_byte_identical_under_fixed_seed(self, tmp_path):
        c = self._corpus()
        lex = LexicalResource.fixture()
        config = QaGenConfig(entity_min=6, predicate_min=11, positives_per_partition=4, seed=9)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_questions(generate_questions(c, lex, config), a)
        write_questions(generate_questions(c, lex, config), b)
        assert a.read_bytes() == b.read_bytes()


class TestMalformedHeaders:
    """A QA file whose first line is not the header its writer writes
    raises ValueError naming the file, never KeyError or AttributeError."""

    def _write(self, tmp_path):
        qs = generate_questions(
            TestEndToEndGeneration()._corpus(), LexicalResource.fixture(),
            QaGenConfig(entity_min=6, predicate_min=11, positives_per_partition=4, seed=5),
        )
        qpath, epath = tmp_path / "questions.jsonl", tmp_path / "evidence.jsonl"
        write_questions(qs, qpath)
        write_evidence(qs.evidence, epath)
        return qpath, epath

    @staticmethod
    def _edit_header(path, edit):
        lines = path.read_text().splitlines()
        lines[0] = edit(json.loads(lines[0]))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit, reason", [
        (lambda h: json.dumps({k: v for k, v in h.items() if k != "partitions"}),
         r"evidence\.jsonl:1: evidence header lacks 'partitions'"),
        (lambda h: json.dumps({**h, "partitions": [{"id": 0, "size": 1}]}),
         r"evidence\.jsonl:1: evidence header lacks 'date_range'"),
        (lambda h: json.dumps({**h, "partitions": [{**h["partitions"][0], "date_range": ["x"]}]}),
         r"evidence\.jsonl:1: bad evidence header"),
        (lambda h: json.dumps({**h, "partitions": 7}), r"evidence\.jsonl:1: bad evidence header"),
        (lambda h: json.dumps({**h, "partitions": [{**h["partitions"][0], "id": 0.0}]}),
         r"evidence\.jsonl:1: bad evidence header: partition id 0\.0 is not int"),
        (lambda h: json.dumps({**h, "partitions": [{**h["partitions"][0], "id": True}]}),
         r"evidence\.jsonl:1: bad evidence header: partition id True is not int"),
        (lambda h: json.dumps({**h, "partitions": [{**h["partitions"][0], "size": 5.0}]}),
         r"evidence\.jsonl:1: bad evidence header: partition size 5\.0 is not int"),
        (lambda h: "[1]", r"evidence\.jsonl: not an evidence file"),
        (lambda h: "{", r"evidence\.jsonl: not an evidence file"),
        (lambda h: json.dumps({**h, "version": 2}), r"evidence\.jsonl: unsupported version 2"),
    ], ids=["no-partitions", "no-date-range", "short-date-range", "partitions-not-a-list",
            "id-float", "id-bool", "size-float", "list", "not-json", "version"])
    def test_evidence_header(self, tmp_path, edit, reason):
        _, epath = self._write(tmp_path)
        self._edit_header(epath, edit)
        with pytest.raises(ValueError, match=reason):
            read_evidence(epath)

    @pytest.mark.parametrize("edit, reason", [
        (lambda h: "[1]", r"questions\.jsonl: not a question file"),
        (lambda h: "{", r"questions\.jsonl: not a question file"),
        (lambda h: json.dumps({k: v for k, v in h.items() if k != "format"}),
         r"questions\.jsonl: not a question file"),
        (lambda h: json.dumps({**h, "version": "1"}),
         r"questions\.jsonl: unsupported version '1'"),
    ], ids=["list", "not-json", "no-format", "version-string"])
    def test_question_header(self, tmp_path, edit, reason):
        qpath, _ = self._write(tmp_path)
        self._edit_header(qpath, edit)
        with pytest.raises(ValueError, match=reason):
            read_questions(qpath)


class TestQaRecordValueTypes:
    """Evidence and question lines whose value only compares equal to the
    one the writer writes (``1 == 1.0 == True``) are refused, on the first
    line that holds an entity as on a later one."""

    @staticmethod
    def _lines(path) -> list[dict]:
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _rewrite(path, records) -> None:
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    @pytest.mark.parametrize("field, cast", [
        ("partition_id", float), ("partition_id", bool), ("prop_id", lambda pid: 7),
    ], ids=["partition-id-float", "partition-id-bool", "prop-id-number"])
    def test_evidence_line(self, tmp_path, field, cast):
        _, epath = TestMalformedHeaders()._write(tmp_path)
        records = self._lines(epath)
        line = next(i for i, r in enumerate(records) if i and r["partition_id"] in (0, 1))
        records[line][field] = cast(records[line][field])
        self._rewrite(epath, records)
        with pytest.raises(ValueError, match=f"evidence.jsonl:{line + 1}: .*{field}"):
            read_evidence(epath)

    def test_question_partition_id(self, tmp_path):
        qpath, _ = TestMalformedHeaders()._write(tmp_path)
        records = self._lines(qpath)
        records[1]["partition_id"] = float(records[1]["partition_id"])
        self._rewrite(qpath, records)
        with pytest.raises(ValueError, match="questions.jsonl:2: .*partition_id"):
            read_questions(qpath)

    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("provenance", 5), ("provenance", {"source_prop": 7}), ("surface", None),
    ], ids=["id-number", "provenance-number", "provenance-value-number", "surface-null"])
    def test_question_field_type(self, tmp_path, field, value):
        qpath, _ = TestMalformedHeaders()._write(tmp_path)
        records = self._lines(qpath)
        records[1][field] = value
        self._rewrite(qpath, records)
        with pytest.raises(ValueError,
                           match=f"questions.jsonl:2: not a canonical question record: {field}"):
            read_questions(qpath)

    @pytest.mark.parametrize("which", ["first", "later"])
    def test_question_is_named_one(self, tmp_path, which):
        qpath, _ = TestMalformedHeaders()._write(tmp_path)
        records = self._lines(qpath)
        surface = records[1]["args"][0]["surface"]
        lines = [i for i, r in enumerate(records) if i and r["args"][0]["surface"] == surface]
        assert len(lines) > 1
        line = lines[0] if which == "first" else lines[-1]
        records[line]["args"][0]["is_named"] = 1
        self._rewrite(qpath, records)
        with pytest.raises(ValueError, match=f"questions.jsonl:{line + 1}: .*is_named"):
            read_questions(qpath)
