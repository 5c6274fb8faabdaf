"""Corpus model, normalization and ingestion contract tests."""

import datetime as dt
import importlib.util
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entgraph import resources
from entgraph.ingest import (
    RecordError,
    decompose_higher_valency,
    ingest,
    normalize_predicate,
    read_corpus,
    save_corpus,
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
        again = read_corpus(out)
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


# -- reading the saved corpus ---------------------------------------------------

INVENTORY = TypeInventory(["person", "Organization", "swimmer"])

# -sed/-ses verbs lose more letters each time they are lemmatized again
ACTIVE = ["caused", "closed", "focused", "raises", "passes", "kills", "sang",
          "receive from", "has caused", "sell.to", "uses", "were buying"]
PASSIVE = ["was caused", "was closed", "is raised", "were focused", "was killed by",
           "has been sold to"]
COPULAR = ["is an author", "was the winner", "be.champion", "are causes"]


@st.composite
def raw_records(draw):
    voice = draw(st.sampled_from(["active", "passive", "copular"]))
    predicate = draw(st.sampled_from({"active": ACTIVE, "passive": PASSIVE,
                                      "copular": COPULAR}[voice]))
    n = draw(st.integers(1, 4))
    roles = [draw(st.sampled_from([1, 2]))] if n == 1 else draw(st.permutations(range(1, n + 1)))
    args = []
    for role in roles:
        arg = {
            "surface": draw(st.sampled_from(["Mustard", " mr.  Boddy", "KNOWLES", "phelps"])),
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
        "date": draw(st.sampled_from([None, "2021-03-01", "2021-03-04"])),
        "sentence_idx": draw(st.integers(0, 9)),
        "predicate": predicate,
        "voice": voice,
        "modifiers": draw(st.lists(st.sampled_from(["not", "planned to", "failed to"]),
                                   max_size=2)),
        "args": args,
    }


def _fields(prop: Proposition) -> tuple:
    # EntityId.__eq__ ignores the surfaces of linked entities, so compare them here
    return (
        prop.predicate,
        tuple((a.surface, a.kb_id, a.is_named) for a in prop.args),
        prop.date, prop.article_id, prop.sentence_idx, prop.negated,
    )


def _saved_lines(conformance_file, tmp_path) -> tuple[Path, list[dict]]:
    path = tmp_path / "corpus.jsonl"
    save_corpus(ingest(conformance_file), path)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _write_records(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


# hand edits of a saved unary record (`kill.2` of `boddy`, linked as fb:m.02)
NOT_SAVED = {
    "voice": lambda r: r.update(voice="passive"),
    "modifiers": lambda r: r.update(modifiers=["not"]),
    "date-format": lambda r: r.update(date="20210304"),
    "sentence-idx-string": lambda r: r.update(sentence_idx="0"),
    "extra-field": lambda r: r.update(note="extra"),
    "missing-field": lambda r: r.pop("article_id"),
    "linked-surface": lambda r: r["args"][0].update(surface="Mustard"),
    "surface-case": lambda r: (r["args"][0].pop("kb_id"), r["args"][0].update(surface="Boddy")),
    "type-case": lambda r: r["args"][0].update(type="Person"),
    "type-separator": lambda r: r["args"][0].update(type="per#son"),
    "predicate-separator": lambda r: r.update(predicate="kill#x"),
    "is-named-string": lambda r: r["args"][0].update(is_named="yes"),
    "kb-id-null": lambda r: r["args"][0].update(kb_id=None),
    "kb-id-number": lambda r: r["args"][0].update(kb_id=2),
    "role": lambda r: r["args"][0].update(role_index=3),
    "unnamed": lambda r: r["args"][0].update(is_named=False),
    "valency-2-roles": lambda r: r["args"].append(dict(r["args"][0], role_index=3)),
}


class TestReadCorpus:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_records(), min_size=1, max_size=10))
    def test_inverts_save_of_ingest(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            raw, saved = Path(tmp) / "raw.jsonl", Path(tmp) / "corpus.jsonl"
            raw.write_text("".join(json.dumps(r) + "\n" for r in records))
            expected = ingest(raw, INVENTORY)
            save_corpus(expected, saved)
            got = read_corpus(saved)
        assert [_fields(p) for p in got] == [_fields(p) for p in expected]

    def test_keeps_lemma_that_normalizing_again_would_change(self, tmp_path):
        record = {
            "predicate": "caused", "date": "2021-03-01",
            "args": [{"surface": "Phelps", "type": "person", "is_named": True, "role_index": 1}],
        }
        raw, saved = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
        _write_records(raw, [record])
        save_corpus(ingest(raw), saved)
        assert read_corpus(saved).propositions[0].predicate.lemma == "caus"
        assert ingest(saved).propositions[0].predicate.lemma == "cau"

    def test_shares_predicates_and_entities(self, conformance_file, tmp_path):
        path, records = _saved_lines(conformance_file, tmp_path)
        _write_records(path, records + records)
        props = read_corpus(path).propositions
        half = len(props) // 2
        for a, b in zip(props[:half], props[half:]):
            assert a.predicate is b.predicate
            assert all(x is y for x, y in zip(a.args, b.args))

    @pytest.mark.parametrize("edit", NOT_SAVED.values(), ids=NOT_SAVED.keys())
    def test_refuses_what_save_corpus_would_not_write(self, conformance_file, tmp_path, edit):
        path, records = _saved_lines(conformance_file, tmp_path)
        edit(records[1])
        _write_records(path, records)
        with pytest.raises(ValueError, match="corpus.jsonl:2: "):
            read_corpus(path)

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:2] + [lines[2][:-9]] + lines[3:],
        lambda lines: lines[:2] + [""] + lines[2:],
    ])
    def test_refuses_truncated_or_blank_line(self, conformance_file, tmp_path, damage):
        path, _ = _saved_lines(conformance_file, tmp_path)
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match="corpus.jsonl:3: "):
            read_corpus(path)

    def test_refuses_second_surface_for_kb_id(self, conformance_file, tmp_path):
        path, records = _saved_lines(conformance_file, tmp_path)
        linked = [i for i, r in enumerate(records) if r["args"][0].get("kb_id") == "fb:m.02"]
        records[linked[-1]]["args"][0]["surface"] = "mr. boddy"
        _write_records(path, records)
        with pytest.raises(ValueError, match=f"corpus.jsonl:{linked[-1] + 1}: .*fb:m.02"):
            read_corpus(path)


def test_sample_corpus_matches_its_generator():
    script = Path(__file__).parent.parent / "scripts" / "make_sample_corpus.py"
    spec = importlib.util.spec_from_file_location("make_sample_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.render().encode() == resources.sample_corpus_path().read_bytes()
