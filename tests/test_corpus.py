"""Corpus model, normalization and ingestion contract tests."""

import datetime as dt
import json

import pytest
from hypothesis import given, strategies as st

from entgraph.ingest import (
    RecordError,
    decompose_higher_valency,
    ingest,
    normalize_predicate,
)
from entgraph.model import (
    Corpus,
    EntityId,
    Proposition,
    TypeInventory,
    TypedPredicate,
    normalize_surface,
)

from conftest import prop


class TestEntityId:
    def test_equality_prefers_kb_id(self):
        a = EntityId("obama", "fb:1")
        b = EntityId("barack obama", "fb:1")
        c = EntityId("obama", "fb:2")
        assert a == b
        assert a != c

    def test_surface_equality_when_unlinked(self):
        assert EntityId("obama") == EntityId("obama", None, True)
        assert EntityId("obama") != EntityId("biden")

    def test_mixed_linkage_compares_surface(self):
        assert EntityId("obama", "fb:1") == EntityId("obama")

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

    def test_idempotent_on_lemmas(self):
        for lemma in ("kill", "sell.to", "be.author", "not.attend", "plan.to.attend"):
            assert normalize_predicate(lemma) == lemma


class TestDecompose:
    def _record(self, n):
        return {
            "predicate": "murder",
            "args": [
                {"surface": f"e{i}", "type": "person", "is_named": True, "role_index": i}
                for i in range(1, n + 1)
            ],
        }

    def test_three_ary_gives_three_binaries(self):
        subs = decompose_higher_valency(self._record(3))
        assert len(subs) == 3
        assert [s["predicate"] for s in subs] == ["murder.1.2", "murder.1.3", "murder.2.3"]

    def test_binary_unchanged(self):
        rec = self._record(2)
        assert decompose_higher_valency(rec) == [rec]

    def test_four_ary_gives_six(self):
        assert len(decompose_higher_valency(self._record(4))) == 6

    @given(st.integers(min_value=3, max_value=7))
    def test_count_is_n_choose_2(self, n):
        subs = decompose_higher_valency(self._record(n))
        assert len(subs) == n * (n - 1) // 2
        # every sub-record is binary with roles renumbered to 1, 2
        for s in subs:
            assert [a["role_index"] for a in s["args"]] == [1, 2]

    def test_duplicate_roles_rejected(self):
        rec = self._record(3)
        rec["args"][2]["role_index"] = 1
        with pytest.raises(RecordError):
            decompose_higher_valency(rec)


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
        assert corpus.predicate_index[key] == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = ingest(path)
        assert len(corpus) == 0
        assert not corpus.predicate_index

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
        out = tmp_path / "saved.jsonl"
        corpus.save(out)
        again = ingest(out)
        assert again == corpus
        assert again.predicate_index == corpus.predicate_index

    def test_valency_equals_arg_count_everywhere(self, conformance_file):
        corpus = ingest(conformance_file)
        for p in corpus:
            assert p.predicate.valency == len(p.args)

    def test_indexes_match_recomputation(self, conformance_file):
        corpus = ingest(conformance_file)
        assert corpus.verify_indexes()

    def test_predicate_counts_sum_to_size(self, conformance_file):
        corpus = ingest(conformance_file)
        assert sum(corpus.predicate_index.values()) == len(corpus)

    def test_construction_rejects_mismatched_args(self):
        with pytest.raises(ValueError):
            Proposition(
                TypedPredicate("kill", 2, ("person", "person")),
                (EntityId("a"),),
            )

    def test_date_parsing(self):
        p = prop("sing.1", ("knowles",), date="2021-03-04")
        assert p.date == dt.date(2021, 3, 4)
