"""Corpus model, normalization and ingestion contract tests."""

import contextlib
import datetime as dt
import importlib.util
import io
import json
import re
import tempfile
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entgraph import resources
from entgraph.cli import EXIT_DATA, EXIT_VERSION, main
from entgraph.columns import read_columns, write_columns
from entgraph.ingest import RecordError, ingest, normalize_predicate, parse_record
from entgraph.model import (
    Corpus,
    EntityId,
    IngestStats,
    Proposition,
    TypeInventory,
    TypedPredicate,
    normalize_surface,
    prop_id,
)
from entgraph.qagen import Partition, write_evidence
from entgraph.records import (
    _CORPUS_TABLES as TABLES,
    _PropositionLines,
    CORPUS_MAGIC,
    CORPUS_VERSION,
    corpus_lines,
    read_corpus,
    save_corpus,
)

from conftest import prop, reseal
from oracles import (
    ENCODER,
    corpus_jsonl,
    evidence_record,
    ingest_objects,
    parse_record_dicts,
    proposition_record,
    read_evidence_jsonl,
    save_corpus_objects,
)


class TestEntityId:
    def test_two_surfaces_of_one_kb_id_share_a_key(self):
        a = EntityId("obama", "fb:1")
        b = EntityId("barack obama", "fb:1")
        c = EntityId("obama", "fb:2")
        assert a != b and a.key == b.key == "fb:1"
        assert a != c and a.key != c.key

    def test_unlinked_entities_compare_surface_and_named_flag(self):
        assert EntityId("obama") == EntityId("obama", None, False)
        assert EntityId("obama") != EntityId("obama", None, True)
        assert EntityId("obama") != EntityId("biden")

    def test_mixed_linkage_compares_surface(self):
        assert EntityId("obama", "fb:1") != EntityId("obama")

    def test_kb_id_never_equals_an_unlinked_surface_of_its_text(self):
        linked, unlinked = EntityId("x", "fb:1"), EntityId("fb:1")
        assert linked != unlinked and not linked == unlinked
        assert linked.key == unlinked.key == "fb:1"

    @given(st.lists(
        st.builds(EntityId, st.sampled_from(["obama", "biden", "fb:1"]),
                  st.sampled_from([None, "fb:1", "fb:2", "obama"]), st.booleans()),
        min_size=3, max_size=3,
    ))
    def test_equality_is_field_equality(self, entities):
        for a in entities:
            fields = (a.surface, a.kb_id, a.is_named)
            assert a == fields and hash(a) == hash(fields)
            assert a.key == (a.kb_id if a.kb_id is not None else a.surface)
            for b in entities:
                same = fields == (b.surface, b.kb_id, b.is_named)
                assert (a == b) == (b == a) == same
                assert (a != b) == (not same)

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            EntityId("")

    def test_surface_normalization(self):
        assert normalize_surface("  Mr.   Boddy ") == "mr. boddy"


class TestTypeInventory:
    def test_default_has_49_labels_plus_fallback(self):
        inv = TypeInventory.default()
        assert len(inv) == 50
        assert "thing" in inv
        assert "person" in inv

    def test_unknown_label_resolves_to_fallback(self):
        inv = TypeInventory(["person"])
        assert inv.resolve("volcanic_archipelago") == ("thing", False)
        assert inv.resolve("person") == ("person", True)

    def test_labels_lowercased_on_load(self):
        inv = TypeInventory(["Athlete", "# a comment", "athlete"])
        assert inv.labels == ("athlete", "thing")
        assert inv.resolve("Athlete") == ("athlete", True)

    @pytest.mark.parametrize("label", ["a#b", "a,b", "a\tb"])
    def test_label_with_token_separator_refused(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            TypeInventory(["person", label])


class TestTypedPredicate:
    def test_unary_needs_case_marker(self):
        with pytest.raises(ValueError):
            TypedPredicate("die", 1, ("person",))
        TypedPredicate("die", 1, ("person",), ".1")

    def test_binary_rejects_case_marker(self):
        with pytest.raises(ValueError):
            TypedPredicate("kill", 2, ("person", "person"), ".2")

    def test_valency_bounds(self):
        with pytest.raises(ValueError):
            TypedPredicate("murder", 3, ("person", "person", "location"))

    def test_token_round_trip(self):
        for p in (
            TypedPredicate("kill", 2, ("person", "person")),
            TypedPredicate("die", 1, ("person",), ".2"),
            TypedPredicate("be.author", 1, ("person",), ".1"),
            TypedPredicate("murder.1.3", 2, ("person", "location")),
        ):
            assert TypedPredicate.parse_token(p.token()) == p


class TestNormalizePredicate:
    def test_passive_maps_to_active(self):
        assert normalize_predicate("was killed", "passive") == "kill"

    def test_copular_author(self):
        assert normalize_predicate("is an author", "copular") == "be.author"

    def test_intransitive_lemmatized(self):
        assert normalize_predicate("sang") == "sing"

    def test_particle_kept(self):
        assert normalize_predicate("receive from") == "receive.from"

    def test_control_modifier_prefix(self):
        assert normalize_predicate("attend", "active", ["planned to"]) == "plan.to.attend"

    def test_negation_prefix(self):
        assert normalize_predicate("attend", "active", ["not"]) == "not.attend"

    def test_empty_raises(self):
        with pytest.raises(RecordError):
            normalize_predicate("  ")

    @pytest.mark.parametrize("raw,modifiers", [
        ("kill#x", []), ("sell.to#x", []), ("attend", ["planned#to"]),
    ])
    def test_token_separator_raises(self, raw, modifiers):
        with pytest.raises(RecordError, match="'#'"):
            normalize_predicate(raw, "active", modifiers)

    def test_idempotent_on_lemmas(self):
        for lemma in ("kill", "sell.to", "be.author", "not.attend", "plan.to.attend"):
            assert normalize_predicate(lemma) == lemma


class TestDecompose:
    """``parse_record`` splits a record with more than two arguments into
    one binary per role pair."""

    def _record(self, n):
        return {
            "predicate": "murder",
            "args": [
                {"surface": f"e{i}", "type": "person", "is_named": True, "role_index": i}
                for i in range(1, n + 1)
            ],
        }

    def _parse(self, record, stats=None):
        return parse_record(record, TypeInventory.default(), stats or IngestStats())

    def test_three_ary_gives_three_binaries(self):
        stats = IngestStats()
        props = self._parse(self._record(3), stats)
        assert [p.predicate.lemma for p in props] == ["murder.1.2", "murder.1.3", "murder.2.3"]
        assert [tuple(a.surface for a in p.args) for p in props] == [
            ("e1", "e2"), ("e1", "e3"), ("e2", "e3")]
        assert stats.decomposed_records == 1

    def test_binary_unchanged(self):
        stats = IngestStats()
        (p,) = self._parse(self._record(2), stats)
        assert p.predicate == TypedPredicate("murder", 2, ("person", "person"))
        assert [a.surface for a in p.args] == ["e1", "e2"]
        assert stats.decomposed_records == 0

    def test_four_ary_gives_six(self):
        assert len(self._parse(self._record(4))) == 6

    @given(st.integers(min_value=3, max_value=7))
    def test_count_is_n_choose_2(self, n):
        props = self._parse(self._record(n))
        assert len(props) == n * (n - 1) // 2
        # every view is binary, named after its role pair in role order
        for p in props:
            i, j = map(int, p.predicate.lemma.split(".")[1:])
            assert i < j and p.predicate.valency == 2
            assert [a.surface for a in p.args] == [f"e{i}", f"e{j}"]

    def test_duplicate_roles_rejected(self):
        rec = self._record(3)
        rec["args"][2]["role_index"] = 1
        stats = IngestStats()
        with pytest.raises(RecordError):
            self._parse(rec, stats)
        assert stats.decomposed_records == 0


class TestIngest(object):
    def test_conformance_file(self, conformance_file):
        corpus = ingest(conformance_file)
        stats = corpus.stats
        assert stats.records_read == 10
        # the 3-ary murder record decomposes into 3 binaries
        assert stats.decomposed_records == 1
        # empty predicate + non-JSON line
        assert stats.skipped_malformed == 2
        # "the fans mingle" has no named entity
        assert stats.skipped_unnamed == 1
        # "volcanic_archipelago" is not in the inventory
        assert stats.unknown_type_labels == 1
        assert stats.propositions == len(corpus.propositions) == 9

        names = sorted(p.predicate.name for p in corpus)
        assert names == [
            "be.author.1", "kill", "kill.2", "murder.1.2", "murder.1.3",
            "murder.2.3", "plan.to.attend.1", "sing.1", "visit",
        ]
        visit = next(p for p in corpus if p.predicate.lemma == "visit")
        assert visit.predicate.slot_types == ("person", "thing")

    def test_single_record_predicate_index(self, tmp_path):
        path = tmp_path / "one.jsonl"
        record = {
            "article_id": "a1", "date": "2021-01-01", "sentence_idx": 0,
            "predicate": "kill", "voice": "active", "modifiers": [],
            "args": [
                {"surface": "Mustard", "type": "person", "is_named": True, "role_index": 1},
                {"surface": "Boddy", "type": "person", "is_named": True, "role_index": 2},
            ],
        }
        path.write_text(json.dumps(record) + "\n")
        corpus = ingest(path)
        key = TypedPredicate("kill", 2, ("person", "person"))
        assert [p.predicate for p in corpus] == [key]
        assert corpus.untyped_index == {key.untyped: 1}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = ingest(path)
        assert len(corpus) == 0
        assert not corpus.untyped_index

    def test_skip_counts(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = {
            "predicate": "sing", "date": "2021-01-01",
            "args": [{"surface": "Knowles", "type": "person", "is_named": True, "role_index": 1}],
        }
        lines = [json.dumps(good)] * 3 + ["{broken"]
        path.write_text("\n".join(lines) + "\n")
        corpus = ingest(path)
        assert len(corpus) == 3
        assert corpus.stats.skipped_malformed == 1

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "missing.jsonl")

    def test_passive_unary_gets_case_2(self, conformance_file):
        corpus = ingest(conformance_file)
        killed = next(p for p in corpus if p.predicate.name == "kill.2")
        assert killed.predicate.case_marker == ".2"
        assert killed.args[0].kb_id == "fb:m.02"

    def test_passive_binary_swaps_argument_order(self, tmp_path):
        # "Boddy was killed by Mustard": surface subject is the patient
        record = {
            "predicate": "was killed by", "voice": "passive", "date": "2021-01-01",
            "args": [
                {"surface": "Boddy", "type": "person", "is_named": True, "role_index": 1},
                {"surface": "Mustard", "type": "person", "is_named": True, "role_index": 2},
            ],
        }
        path = tmp_path / "passive.jsonl"
        path.write_text(json.dumps(record) + "\n")
        corpus = ingest(path)
        (p,) = corpus.propositions
        assert p.predicate.name == "kill.by"
        assert [a.surface for a in p.args] == ["mustard", "boddy"]

    def test_kb_surface_canonicalization(self, conformance_file):
        corpus = ingest(conformance_file)
        # fb:m.02 first appears as "boddy"; the passive mention normalizes to it
        surfaces = {a.surface for p in corpus for a in p.args if a.kb_id == "fb:m.02"}
        assert surfaces == {"boddy"}


class TestCorpusInvariants:
    def test_round_trip_identity(self, conformance_file, tmp_path):
        corpus = ingest(conformance_file)
        out = tmp_path / "corpus.columns"
        save_corpus(corpus, out)
        again = read_corpus(out)
        assert again == corpus
        assert again.untyped_index == corpus.untyped_index

    def test_valency_equals_arg_count_everywhere(self, conformance_file):
        corpus = ingest(conformance_file)
        for p in corpus:
            assert p.predicate.valency == len(p.args)

    def test_indexes_match_recomputation(self, conformance_file):
        corpus = ingest(conformance_file)
        assert corpus.untyped_index == Counter(p.predicate.untyped for p in corpus)

    def test_predicate_counts_sum_to_size(self, conformance_file):
        corpus = ingest(conformance_file)
        assert sum(corpus.untyped_index.values()) == len(corpus)

    def test_construction_rejects_mismatched_args(self):
        with pytest.raises(ValueError):
            Proposition(
                TypedPredicate("kill", 2, ("person", "person")),
                (EntityId("a"),),
            )

    def test_date_parsing(self):
        p = prop("sing.1", ("knowles",), date="2021-03-04")
        assert p.date == dt.date(2021, 3, 4)


# -- reading the saved corpus ---------------------------------------------------

INVENTORY = TypeInventory(["person", "Organization", "swimmer"])

# -sed/-ses verbs lose more letters each time they are lemmatized again
ACTIVE = ["caused", "closed", "focused", "raises", "passes", "kills", "sang",
          "receive from", "has caused", "sell.to", "uses", "were buying"]
PASSIVE = ["was caused", "was closed", "is raised", "were focused", "was killed by",
           "has been sold to"]
COPULAR = ["is an author", "was the winner", "be.champion", "are causes"]


@st.composite
def raw_records(draw, loose: bool = False):
    """Well-typed raw records; ``loose`` ones may also repeat or skip roles
    and hold a surface that normalizes to nothing."""
    voice = draw(st.sampled_from(["active", "passive", "copular"]))
    predicate = draw(st.sampled_from({"active": ACTIVE, "passive": PASSIVE,
                                      "copular": COPULAR}[voice]))
    n = draw(st.integers(1, 4))
    if loose:
        roles = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    elif n == 1:
        roles = [draw(st.sampled_from([1, 2]))]
    else:
        roles = draw(st.permutations(range(1, n + 1)))
    surfaces = ["Mustard", " mr.  Boddy", "KNOWLES", "phelps"] + ([" "] if loose else [])
    args = []
    for role in roles:
        arg = {
            "surface": draw(st.sampled_from(surfaces)),
            "type": draw(st.sampled_from(["person", "swimmer", "ORGANIZATION", "volcano"])),
            "is_named": draw(st.booleans()),
            "role_index": role,
        }
        kb_id = draw(st.sampled_from([None, "fb:1", "fb:2"]))
        if kb_id is not None:
            arg["kb_id"] = kb_id
        args.append(arg)
    return {
        "article_id": draw(st.sampled_from(["a1", "a2"])),
        "date": draw(st.sampled_from([None, "2021-03-01", "2021-03-04"] + (
            # compact (read by CPython 3.11+ only), impossible, not a string
            ["", "20210301", "2021-02-30", 20210301, 2021.0, True, ["2021-03-01"]]
            if loose else []))),
        "sentence_idx": draw(st.integers(0, 9)),
        "predicate": predicate,
        "voice": voice,
        "modifiers": draw(st.one_of(
            st.lists(st.sampled_from(["not", "planned to", "failed to"]), max_size=2),
            # values of other types, falsy ones included, which no reader may
            # take for no modifiers
            *([st.sampled_from([None, 0, "", {}, False, [None]])] if loose else []),
        )),
        "args": args,
    }


def _write_records(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


class TestParseRecordOracle:
    """``parse_record`` gives what ``oracles.parse_record_dicts``, the
    parser through copies of the record, gives: the same propositions and
    counts, or RecordError from both."""

    @settings(max_examples=300, deadline=None)
    @given(raw_records(loose=True))
    def test_agrees_with_dict_parser(self, record):
        got_stats, want_stats = IngestStats(), IngestStats()
        try:
            want = parse_record_dicts(record, INVENTORY, want_stats)
        except RecordError:
            with pytest.raises(RecordError):
                parse_record(record, INVENTORY, got_stats)
        else:
            got = parse_record(record, INVENTORY, got_stats)
            # a ParsedProposition equals the Proposition of its fields
            assert got == want
        assert got_stats.as_dict() == want_stats.as_dict()


# one raw field of a well-formed record given a value of another type than
# docs/formats.md's table gives it
RAW_MISTYPED = {
    "predicate-list": lambda r: r.update(predicate=["won"]),
    "predicate-number": lambda r: r.update(predicate=7),
    "voice-null": lambda r: r.update(voice=None),
    "voice-list": lambda r: r.update(voice=["active"]),
    "article-id-number": lambda r: r.update(article_id=7),
    "article-id-null": lambda r: r.update(article_id=None),
    "modifier-null": lambda r: r.update(modifiers=[None]),
    "modifier-number": lambda r: r.update(modifiers=["not", 3]),
    "modifiers-string": lambda r: r.update(modifiers="not"),
    # falsy values that are not a list are no modifiers list either
    "modifiers-zero": lambda r: r.update(modifiers=0),
    "modifiers-false": lambda r: r.update(modifiers=False),
    "modifiers-empty-string": lambda r: r.update(modifiers=""),
    "modifiers-empty-object": lambda r: r.update(modifiers={}),
    "modifiers-null": lambda r: r.update(modifiers=None),
    "surface-null": lambda r: r["args"][0].update(surface=None),
    "surface-number": lambda r: r["args"][0].update(surface=12),
    "type-null": lambda r: r["args"][0].update(type=None),
    "type-list": lambda r: r["args"][0].update(type=["person"]),
    "kb-id-number": lambda r: r["args"][0].update(kb_id=2),
    "kb-id-list": lambda r: r["args"][0].update(kb_id=["fb:1"]),
    "is-named-string": lambda r: r["args"][0].update(is_named="false"),
    "is-named-int": lambda r: r["args"][0].update(is_named=1),
    "is-named-null": lambda r: r["args"][0].update(is_named=None),
    "sentence-idx-float": lambda r: r.update(sentence_idx=1.0),
    "sentence-idx-bool": lambda r: r.update(sentence_idx=True),
    "sentence-idx-string": lambda r: r.update(sentence_idx="1"),
    "role-index-float": lambda r: r["args"][0].update(role_index=1.5),
    "role-index-string": lambda r: r["args"][0].update(role_index="1"),
    "role-index-bool": lambda r: r["args"][0].update(role_index=True),
    # Python 3.11 reads these basic-format dates, 3.10 does not
    "date-basic-format": lambda r: r.update(date="20210101"),
    "date-number": lambda r: r.update(date=20210101),
}


class TestRawFieldTypes:
    """A raw record whose field has another type than the format gives it is
    skipped and counted as malformed, neither coerced nor fatal."""

    @staticmethod
    def _record() -> dict:
        return {
            "article_id": "a1", "date": "2021-01-01", "sentence_idx": 1,
            "predicate": "won", "voice": "active", "modifiers": [],
            "args": [{"surface": "Biden", "kb_id": "fb:b", "type": "person",
                      "is_named": True, "role_index": 1}],
        }

    @pytest.mark.parametrize("edit", RAW_MISTYPED.values(), ids=RAW_MISTYPED.keys())
    def test_mistyped_field_is_skipped(self, tmp_path, edit):
        record = self._record()
        edit(record)
        path = tmp_path / "raw.jsonl"
        _write_records(path, [self._record(), record])
        corpus = ingest(path)
        assert len(corpus) == 1
        assert corpus.stats.records_read == 2 and corpus.stats.skipped_malformed == 1

    def test_null_modifier_is_no_crash_in_the_cli(self, tmp_path):
        record = self._record()
        record["modifiers"] = [None]
        raw = tmp_path / "raw.jsonl"
        _write_records(raw, [record, self._record()])
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", str(raw)]) == 0
        assert len(read_corpus(out / "corpus.columns")) == 1

    def test_sentence_idx_beyond_int32_is_skipped(self, tmp_path):
        # the saved corpus holds sentence indices as int32
        record = self._record()
        record["sentence_idx"] = 2**31
        path = tmp_path / "raw.jsonl"
        _write_records(path, [self._record(), record])
        corpus = ingest(path)
        assert len(corpus) == 1 and corpus.stats.skipped_malformed == 1


# the saved corpus as read_columns gives it: its tables, and its columns
# as lists, which the edits below change in place
PRED, ARG1, ARG2, DATE, ARTICLE, SENTENCE = range(6)


def _saved(conformance_file, tmp_path) -> tuple[Path, dict, list[list[int]]]:
    path = tmp_path / "corpus.columns"
    save_corpus(ingest(conformance_file), path)
    tables, columns = read_columns(path, CORPUS_MAGIC, CORPUS_VERSION, TABLES, "iiiiii")
    return path, tables, [list(c) for c in columns]


def _rewrite(path: Path, tables: dict, columns: list[list[int]]) -> None:
    write_columns(path, CORPUS_MAGIC, CORPUS_VERSION, tables, [array("i", c) for c in columns])


def _row(column: int, value: int):
    """An edit of row 1's value in ``column``."""
    def edit(tables, columns):
        columns[column][1] = value
        return "row 1"
    return edit


def _entry(table: str, column: int, field, value):
    """An edit of ``field`` of the ``table`` entry row 1 names in ``column``."""
    def edit(tables, columns):
        k = columns[column][1]
        tables[table][k][field] = value
        return f"{table} entry {k}"
    return edit


def _tables(change):
    """An edit of the tables' keys."""
    def edit(tables, columns):
        change(tables)
        return "tables have keys"
    return edit


def _unname(tables, columns):
    """Row 1's only argument made unnamed."""
    tables["entities"][columns[ARG1][1]][2] = False
    return "row 1"


# hand edits of the saved corpus at row 1, the unary `kill.2` of `boddy`
# (linked as fb:m.02), each returning where the reader must say it is. A
# record line's `voice`, `modifiers`, present null `kb_id` and non-int
# `sentence_idx` have no place in the columns; evidence lines still hold
# them (RECORD_ONLY below).
NOT_SAVED = {
    "date-format": _row(DATE, -1),
    "sentence-idx-negative": _row(SENTENCE, -1),
    "extra-field": _tables(lambda t: t.update(note="extra")),
    "missing-field": _tables(lambda t: t.pop("articles")),
    "linked-surface": _entry("entities", ARG1, 0, "Mustard"),
    "surface-case": _entry("entities", ARG1, slice(0, 2), ["Boddy", None]),
    "type-case": _entry("predicates", PRED, 1, ["Person"]),
    "type-separator": _entry("predicates", PRED, 1, ["per#son"]),
    "predicate-separator": _entry("predicates", PRED, 0, "kill#x"),
    "is-named-string": _entry("entities", ARG1, 2, "yes"),
    "kb-id-number": _entry("entities", ARG1, 1, 2),
    "role": _entry("predicates", PRED, 2, ".3"),
    "unnamed": _unname,
    "valency-2-roles": _row(ARG2, 0),
}


class TestReadCorpus:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_records(), min_size=1, max_size=10))
    def test_inverts_save_of_ingest(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            raw, saved = Path(tmp) / "raw.jsonl", Path(tmp) / "corpus.columns"
            raw.write_text("".join(json.dumps(r) + "\n" for r in records))
            expected = ingest(raw, INVENTORY)
            save_corpus(expected, saved)
            got = read_corpus(saved)
            reseal(Path(tmp), "corpus.columns")
            dump = io.StringIO()
            with contextlib.redirect_stdout(dump):
                assert main(["dump-corpus", "--out", tmp]) == 0
        assert got.propositions == expected.propositions
        # the ingest run's counts stay with ingest: a read corpus has none
        assert expected.stats is not None and got.stats is None
        _assert_shared(got.propositions)
        assert dump.getvalue() == corpus_jsonl(expected)

    def test_keeps_lemma_that_normalizing_again_would_change(self, tmp_path):
        record = {
            "predicate": "caused", "date": "2021-03-01",
            "args": [{"surface": "Phelps", "type": "person", "is_named": True, "role_index": 1}],
        }
        raw, saved = tmp_path / "raw.jsonl", tmp_path / "corpus.columns"
        _write_records(raw, [record])
        save_corpus(ingest(raw), saved)
        assert read_corpus(saved).propositions[0].predicate.lemma == "caus"
        dumped = tmp_path / "dumped.jsonl"
        dumped.write_text("".join(corpus_lines(read_corpus(saved))))
        assert ingest(dumped).propositions[0].predicate.lemma == "cau"

    def test_shares_predicates_and_entities(self, conformance_file, tmp_path):
        path = tmp_path / "corpus.columns"
        props = ingest(conformance_file).propositions
        save_corpus(Corpus(props + props), path)
        props = read_corpus(path).propositions
        half = len(props) // 2
        for a, b in zip(props[:half], props[half:]):
            assert a.predicate is b.predicate
            assert all(x is y for x, y in zip(a.args, b.args))
            assert a.date is b.date

    @pytest.mark.parametrize("edit", NOT_SAVED.values(), ids=NOT_SAVED.keys())
    def test_refuses_what_save_corpus_would_not_write(self, conformance_file, tmp_path, edit):
        path, tables, columns = _saved(conformance_file, tmp_path)
        where = edit(tables, columns)
        _rewrite(path, tables, columns)
        with pytest.raises(ValueError, match=rf"corpus\.columns: {re.escape(where)}"):
            read_corpus(path)

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-9],
        lambda data: data.replace(b"\n", b"\n\n", 1),
    ])
    def test_refuses_truncated_or_blank_line(self, conformance_file, tmp_path, damage):
        path, _, _ = _saved(conformance_file, tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=r"corpus\.columns: (column 5 is short|tables line)"):
            read_corpus(path)

    def test_refuses_second_surface_for_kb_id(self, conformance_file, tmp_path):
        path, tables, columns = _saved(conformance_file, tmp_path)
        boddy = tables["entities"][columns[ARG1][1]]
        assert boddy[1] == "fb:m.02"
        tables["entities"].append(["mr. boddy", "fb:m.02", True])
        _rewrite(path, tables, columns)
        k = len(tables["entities"]) - 1
        with pytest.raises(ValueError, match=rf"corpus\.columns: entities entry {k}: .*fb:m.02"):
            read_corpus(path)


def _assert_shared(props) -> None:
    """Equal predicates, entities (by fields) and dates are one object."""
    first: dict = {}
    for p in props:
        for key, obj in [(p.predicate, p.predicate), (("date", p.date), p.date),
                         *((("entity", *a), a) for a in p.args)]:
            assert first.setdefault(key, obj) is obj


class TestCorpusColumns:
    """What the column codec and the corpus reader refuse beyond the edits
    of a saved record: the file's shape, ids and repeated table entries."""

    @pytest.mark.parametrize("damage, reason", [
        (lambda data: data[:-1], "column 5 is short: 35 of 36 bytes"),
        (lambda data: data[:-4 * 9 * 3], "column 3 is short: 0 of 36 bytes"),
        (lambda data: data + b"\0", "trailing bytes after the last column"),
        (lambda data: data.replace(b'"rows": 9', b'"rows": 9.0'), "rows 9.0 is not a count"),
        (lambda data: data.replace(b'"rows": 9', b'"rows": true'), "rows True is not a count"),
        (lambda data: data.replace(b'"rows": 9', b'"rows": 8'), "trailing bytes"),
        (lambda data: data.replace(b"\n{", b"\n[{", 1), "tables line is not"),
    ], ids=["short-last-column", "missing-columns", "trailing-byte", "rows-float", "rows-bool",
            "rows-fewer", "tables-not-an-object"])
    def test_refuses_damaged_file(self, conformance_file, tmp_path, damage, reason):
        path, _, _ = _saved(conformance_file, tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=rf"corpus\.columns: {re.escape(reason)}"):
            read_corpus(path)

    @pytest.mark.parametrize("stage", [["build-local"], ["gen-questions"], ["dump-corpus"]])
    @pytest.mark.parametrize("first, code, reason", [
        (b"entgraph-corpus v2", EXIT_VERSION, "version mismatch: "),
        (b"entgraph-corpus", EXIT_VERSION, "version mismatch: "),
        (b"entgraph-subgraph v1", EXIT_DATA, "data error: "),
        (b'{"article_id": "a1"}', EXIT_DATA, "data error: "),
    ], ids=["version-2", "no-version", "graph-magic", "record-line"])
    def test_wrong_magic_or_version_refused(self, tmp_path, capsys, stage, first, code, reason):
        assert main(["ingest", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corpus.columns"
        path.write_bytes(first + path.read_bytes()[path.read_bytes().index(b"\n"):])
        reseal(tmp_path, "corpus.columns")
        capsys.readouterr()
        assert main([*stage, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.startswith(f"{reason}{path}: ")

    @pytest.mark.parametrize("column, value, what", [
        (PRED, 99, "predicate id 99"),
        (PRED, -1, "predicate id -1"),
        (ARG1, -1, "argument 1 id -1"),
        (ARG1, 99, "argument 1 id 99"),
        (ARG2, -2, "argument 2 id -2"),
        (ARTICLE, 99, "article id 99"),
        (DATE, 10**7, "date ordinal 10000000"),
    ])
    def test_refuses_id_out_of_range(self, conformance_file, tmp_path, column, value, what):
        path, tables, columns = _saved(conformance_file, tmp_path)
        columns[column][4] = value
        _rewrite(path, tables, columns)
        with pytest.raises(ValueError, match=rf"corpus\.columns: row 4: {what} out of range"):
            read_corpus(path)

    def test_refuses_binary_without_second_argument(self, conformance_file, tmp_path):
        path, tables, columns = _saved(conformance_file, tmp_path)
        assert columns[ARG2][0] >= 0
        columns[ARG2][0] = -1
        _rewrite(path, tables, columns)
        with pytest.raises(ValueError, match=r"corpus\.columns: row 0: argument count"):
            read_corpus(path)

    @pytest.mark.parametrize("table", ["articles", "entities", "predicates"])
    def test_refuses_repeated_entry(self, conformance_file, tmp_path, table):
        path, tables, columns = _saved(conformance_file, tmp_path)
        tables[table].append(tables[table][0])
        _rewrite(path, tables, columns)
        k = len(tables[table]) - 1
        with pytest.raises(ValueError,
                           match=rf"corpus\.columns: {table} entry {k}: repeats an earlier entry"):
            read_corpus(path)

    @pytest.mark.parametrize("where", ["first-entry", "repeated-entry"])
    def test_refuses_is_named_one(self, conformance_file, tmp_path, where):
        # 1 == True: refused as the first entry of an entity, and after an
        # entry that holds the entity with the written value
        path, tables, columns = _saved(conformance_file, tmp_path)
        entities = tables["entities"]
        assert entities[0][2] is True
        if where == "first-entry":
            entities[0][2] = 1
        else:
            entities.append([*entities[0][:2], 1])
        _rewrite(path, tables, columns)
        k = 0 if where == "first-entry" else len(entities) - 1
        with pytest.raises(ValueError, match=rf"corpus\.columns: entities entry {k}: is_named"):
            read_corpus(path)

    @pytest.mark.parametrize("table, entry, reason", [
        ("predicates", "kill", "'kill' is not [lemma, types, case]"),
        ("predicates", ["kill", "person", None], "types 'person' is not list"),
        ("predicates", ["kill", ["person"], None], "unary predicates need a case marker"),
        ("predicates", ["kill", ["person", "person"], ".1"], "binary predicates carry no case"),
        ("predicates", ["", ["person"], ".1"], "predicate '' is not a lemma"),
        ("entities", ["x", None], "['x', None] is not [surface, kb_id, is_named]"),
        ("entities", [7, None, True], "surface 7 is not str"),
        ("entities", ["", None, True], "entity surface must be non-empty"),
        ("articles", 7, "article id 7 is not str"),
    ])
    def test_refuses_malformed_entry(self, conformance_file, tmp_path, table, entry, reason):
        path, tables, columns = _saved(conformance_file, tmp_path)
        tables[table].append(entry)
        _rewrite(path, tables, columns)
        k = len(tables[table]) - 1
        with pytest.raises(ValueError, match=rf"corpus\.columns: {table} entry {k}: "
                                             rf"{re.escape(reason)}"):
            read_corpus(path)

    def test_empty_corpus_round_trips(self, tmp_path):
        path = tmp_path / "corpus.columns"
        save_corpus(Corpus([]), path)
        assert read_corpus(path) == Corpus([])


# hand edits of a saved record line that only an evidence line can still
# hold: the corpus columns have no place for them
RECORD_ONLY = {
    "voice": lambda r: r.update(voice="passive"),
    "modifiers": lambda r: r.update(modifiers=["not"]),
    "kb-id-null": lambda r: r["args"][0].update(kb_id=None),
    "sentence-idx-string": lambda r: r.update(sentence_idx="0"),
    "extra-field": lambda r: r.update(note="extra"),
    "missing-field": lambda r: r.pop("article_id"),
}


def _evidence_lines(path: Path, props) -> list[dict]:
    """``props`` written as one evidence partition; the file's records."""
    dates = sorted(p.date for p in props if p.date is not None)
    corpus = Corpus(props)
    write_evidence([Partition(0, (dates[0], dates[-1]), corpus, range(len(corpus)))], corpus, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEvidenceRecordLines:
    """Evidence lines hold propositions in the record form; the reference
    reader of ``evidence.jsonl`` refuses any line ``write_evidence`` would
    not write."""

    @pytest.mark.parametrize("edit", RECORD_ONLY.values(), ids=RECORD_ONLY.keys())
    def test_refuses_what_write_evidence_would_not_write(self, conformance_file, tmp_path,
                                                         edit):
        path = tmp_path / "evidence.jsonl"
        records = _evidence_lines(path, ingest(conformance_file).propositions)
        edit(records[2])
        _write_records(path, records)
        with pytest.raises(ValueError, match=r"evidence\.jsonl:3: "):
            read_evidence_jsonl(path)


# values that equal what ``write_evidence`` writes but are of another type,
# in the record itself (None) or in one of its arguments
LOOKALIKES = {
    "sentence-idx-float": ("sentence_idx", 1.0, None),
    "sentence-idx-true": ("sentence_idx", True, None),
    "role-index-true": ("role_index", True, 0),
    "role-index-float": ("role_index", 2.0, 1),
    "is-named-one": ("is_named", 1, 1),
}


class TestCanonicalValueTypes:
    """The reference evidence reader refuses a value that only compares
    equal to the one ``write_evidence`` writes (``1 == 1.0 == True``), on
    any line, whether or not an earlier line holds the same entity with the
    written value. The corpus columns hold ints and bools only where they
    belong, so of these only ``is_named`` can be mistyped there
    (``TestCorpusColumns.test_refuses_is_named_one``)."""

    @pytest.mark.parametrize("line", [0, 1], ids=["first-line", "second-line"])
    @pytest.mark.parametrize("field, value, arg", LOOKALIKES.values(), ids=LOOKALIKES.keys())
    def test_refused_on_either_line(self, tmp_path, field, value, arg, line):
        path = tmp_path / "evidence.jsonl"
        kill = Proposition(TypedPredicate("kill", 2, ("person", "person")),
                           (EntityId("mustard", None, True), EntityId("boddy", None, True)),
                           "a1", dt.date(2021, 3, 1), 1)
        records = _evidence_lines(path, [kill, kill])
        written = records[line + 1] if arg is None else records[line + 1]["args"][arg]
        assert written[field] == value
        written[field] = value
        _write_records(path, records)
        with pytest.raises(ValueError, match=rf"evidence\.jsonl:{line + 2}: .*{field}"):
            read_evidence_jsonl(path)


def _sings(surface: str, kb_id: str | None = None) -> dict:
    arg = {"surface": surface, "type": "person", "is_named": True, "role_index": 1}
    return {"predicate": "sing", "date": "2021-01-01",
            "args": [{**arg, "kb_id": kb_id} if kb_id is not None else arg]}


# a linked entity and an unlinked surface with one key, in both orders
KEY_CLASHES = {
    "linked-first": [_sings("X", "fb:1"), _sings("fb:1")],
    "unlinked-first": [_sings("fb:1"), _sings("X", "fb:1")],
}


class TestEntityKeyClash:
    """An unlinked surface equal to a kb id of the same file would equal
    the linked entity and share its feature key; both readers refuse it."""

    @pytest.mark.parametrize("records", KEY_CLASHES.values(), ids=KEY_CLASHES.keys())
    def test_ingest_refuses(self, tmp_path, capsys, records):
        raw = tmp_path / "raw.jsonl"
        _write_records(raw, records)
        with pytest.raises(ValueError, match=r"raw\.jsonl:2: 'fb:1' is both a kb id"):
            ingest(raw)
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--corpus", str(raw)]) == EXIT_DATA
        assert f"{raw}:2: " in capsys.readouterr().err
        assert not (out / "corpus.columns").exists()

    @pytest.mark.parametrize("records", KEY_CLASHES.values(), ids=KEY_CLASHES.keys())
    def test_read_corpus_refuses(self, tmp_path, records):
        props = []
        for i, record in enumerate(records):
            _write_records(tmp_path / f"{i}.jsonl", [record])
            props += ingest(tmp_path / f"{i}.jsonl").propositions
        path = tmp_path / "corpus.columns"
        save_corpus(Corpus(props), path)
        with pytest.raises(ValueError,
                           match=r"corpus\.columns: entities entry 1: 'fb:1' is both a kb id"):
            read_corpus(path)

    def test_one_key_in_two_files_is_no_clash(self, tmp_path):
        for i, record in enumerate(KEY_CLASHES["linked-first"]):
            _write_records(tmp_path / f"{i}.jsonl", [record])
            save_corpus(ingest(tmp_path / f"{i}.jsonl"), tmp_path / f"corpus{i}.columns")
            assert len(read_corpus(tmp_path / f"corpus{i}.columns")) == 1


def test_sample_corpus_matches_its_generator():
    script = Path(__file__).parent.parent / "scripts" / "make_sample_corpus.py"
    spec = importlib.util.spec_from_file_location("make_sample_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.render().encode() == resources.sample_corpus_path().read_bytes()


# -- streaming ingest against the object path -------------------------------------

# a small vocabulary, so that raw predicates and arguments repeat across the
# records of a file: linked surfaces that change (fb:1), an unlinked surface
# equal to a kb id, unknown type labels; and, now and then, a value of
# another type than the format gives, equal to an accepted one (1 == 1.0 ==
# True) or not, which no memo may take for the accepted one
STREAM_FIELDS = {
    "surface": (["Mustard", " mustard", "Col.  Mustard", "boddy", "fb:1"], ["", 1, ["x"]]),
    "kb_id": ([None, None, "fb:1", "fb:2"], [1, True]),
    "type": (["person", "Person ", "volcano", "ORGANIZATION"], [1, None]),
    "is_named": ([True, True, False], [1, 1.0, 0]),
    "predicate": (["won", "was killed", "kills", "is an author"], [7, ["won"]]),
    "voice": (["active", "active", "passive", "copular"], [1, None]),
    "modifiers": ([[], [], ["not"], ["planned to"]], ["not", [1], [True], [["not"]]]),
    "date": ([None, "", "2021-03-01", "2021-03-04"], ["20210301", "2021-02-30", 1, ["x"]]),
    "article_id": (["a1", "a2"], [1, None]),
    "sentence_idx": ([0, 1, 2**31 - 1], [1.0, True, -1, 2**31]),
}
STREAM_LINES = ["", "{", "[]", "null", '"won"', '{"predicate": "won"}', '{"args": []}']


@st.composite
def stream_records(draw):
    """One raw record line of ``STREAM_FIELDS``' vocabulary, each field
    mistyped one time in ten: passives, and 1 to 4 arguments, their roles
    a permutation (or, one time in ten, a role repeated or mistyped)."""

    def field(name):
        valid, mistyped = STREAM_FIELDS[name]
        return draw(st.sampled_from(mistyped if draw(st.integers(0, 9)) == 0 else valid))

    n = draw(st.integers(1, 4))
    roles = [draw(st.sampled_from([1, 2]))] if n == 1 else draw(st.permutations(range(1, n + 1)))
    if draw(st.integers(0, 9)) == 0:
        roles[0] = draw(st.sampled_from([1.0, True, roles[-1], 3]))
    args = []
    for role in roles:
        arg = {name: field(name) for name in ("surface", "type", "is_named")}
        arg["role_index"] = role
        kb_id = field("kb_id")
        if kb_id is not None:
            arg["kb_id"] = kb_id
        args.append(arg)
    record = {name: field(name) for name in (
        "predicate", "voice", "modifiers", "date", "article_id", "sentence_idx")}
    return json.dumps({**record, "args": args})


class TestStreamingIngest:
    """``ingest``, which interns each record's propositions as it parses it
    and keeps what it decided for a raw value, writes what the object path
    (``oracles.ingest_objects``, then ``oracles.save_corpus_objects``)
    writes, counts what it counts and refuses what it refuses, with the
    same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(stream_records(), stream_records(), stream_records(),
                              st.sampled_from(STREAM_LINES)), min_size=1, max_size=12))
    def test_agrees_with_the_object_path(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "raw.jsonl"
            raw.write_text("".join(line + "\n" for line in lines))
            try:
                want = ingest_objects(raw, INVENTORY)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    ingest(raw, INVENTORY)
                assert str(got.value) == str(exc)
                return
            got = ingest(raw, INVENTORY)
            save_corpus_objects(want.propositions, Path(tmp) / "want.columns")
            save_corpus(got, Path(tmp) / "got.columns")
            assert (Path(tmp) / "got.columns").read_bytes() == (
                Path(tmp) / "want.columns").read_bytes()
        assert got.stats.as_dict() == want.stats.as_dict()
        assert got.propositions == want.propositions

    def test_clash_of_an_unnamed_view_is_skipped(self, tmp_path):
        # the unnamed view is dropped before its surface could clash with
        # the kb id, so only the linked entity is kept
        unnamed = {"predicate": "won", "args": [
            {"surface": "fb:1", "type": "person", "is_named": False, "role_index": 1}]}
        linked = {"predicate": "won", "args": [
            {"surface": "Mustard", "kb_id": "fb:1", "type": "person", "is_named": True,
             "role_index": 1}]}
        raw = tmp_path / "raw.jsonl"
        _write_records(raw, [linked, unnamed, linked])
        corpus = ingest(raw)
        assert len(corpus) == 2 and corpus.stats.skipped_unnamed == 1

    def test_is_named_one_is_not_true(self, tmp_path):
        record = {"predicate": "won", "args": [
            {"surface": "Mustard", "type": "person", "is_named": True, "role_index": 1}]}
        mistyped = json.loads(json.dumps(record))
        mistyped["args"][0]["is_named"] = 1
        raw = tmp_path / "raw.jsonl"
        _write_records(raw, [record, mistyped, record])
        corpus = ingest(raw)
        assert len(corpus) == 2 and corpus.stats.skipped_malformed == 1


# -- proposition lines against the encoder --------------------------------------

# text that JSON escapes: quotes, backslashes, controls, U+2028, non-ASCII,
# lone surrogates
LINE_TEXT = st.text(st.sampled_from(
    ["a", "Z", " ", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "中",
     "\U0001f600", "\ud800", "\udfff"]), min_size=1, max_size=6)


@st.composite
def line_propositions(draw):
    valency = draw(st.integers(1, 2))
    types = tuple(draw(st.lists(st.sampled_from(["person", "thing", "o\u2028rg"]),
                                min_size=valency, max_size=valency)))
    case = draw(st.sampled_from([".1", ".2"])) if valency == 1 else None
    predicate = TypedPredicate(draw(LINE_TEXT), valency, types, case)
    args = tuple(EntityId(draw(LINE_TEXT), draw(st.one_of(st.none(), LINE_TEXT)),
                          draw(st.booleans())) for _ in range(valency))
    date = draw(st.one_of(st.none(), st.dates()))
    sentence_idx = draw(st.sampled_from([0, 1, 2**31 - 1]))
    return Proposition(predicate, args, draw(LINE_TEXT), date, sentence_idx)


class TestPropositionLines:
    """``dump-corpus`` and evidence lines, assembled from fragments encoded
    once per table entry, are what the encoder writes of each record."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(line_propositions(), min_size=1, max_size=8),
           st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=8))
    def test_agree_with_the_encoder(self, props, partition_ids):
        corpus = Corpus(props)
        assert list(corpus_lines(corpus)) == [
            ENCODER.encode(proposition_record(p)) + "\n" for p in props]
        items = [(partition_ids[row % len(partition_ids)], row) for row in range(len(props))]
        assert list(_PropositionLines(corpus).evidence_lines(items)) == [
            ENCODER.encode(evidence_record((part, prop_id(row), props[row]))) + "\n"
            for part, row in items]
