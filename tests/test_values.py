"""The contract of the package's immutable value types.

Entities, predicates, propositions, argument maps, edges, query results,
answer records, metric points and configs are tuples of their fields. These
tests pin what callers rely on: equality and hashing (by key for entities),
the messages of the checks made on construction, ``repr``, the ordering
that ``sorted`` calls use, and that no field can be assigned.
"""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from entgraph.features import FeatureConfig, _pred_sort_key, build_vectors, count
from entgraph.globalgraph import GlobalConfig
from entgraph.localgraph import (
    BB,
    BU,
    EDGE_CODES,
    UU,
    ArgMap,
    EntailmentEdge,
    LocalBuildConfig,
)
from entgraph.model import EntityId, Proposition, TypedPredicate
from entgraph.qaeval import AccuracyAtK, AnswerRecord, PRPoint
from entgraph.qagen import QaGenConfig
from entgraph.store import QueryResult

from conftest import corpus, pred, prop

KILL = pred("kill", "person", "person")
DIE = pred("die.1", "person")
ID1, ID2, SWAP = ArgMap.identity(1), ArgMap.identity(2), ArgMap.swap()


class TestEntityKeyEquality:
    def test_linked_never_equals_unlinked(self):
        linked, unlinked = EntityId("obama", "fb:1", True), EntityId("obama", None, True)
        assert linked != unlinked
        assert not linked == unlinked
        assert len({linked, unlinked}) == 2

    def test_one_kb_id_with_two_surfaces_is_one_entity(self):
        a, b = EntityId("obama", "fb:1"), EntityId("barack obama", "fb:1", True)
        assert a == b
        assert not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_propositions_compare_their_entities_by_key(self):
        a = Proposition(KILL, (EntityId("obama", "fb:1"), EntityId("b")))
        b = Proposition(KILL, (EntityId("barack obama", "fb:1"), EntityId("b")))
        assert a == b and hash(a) == hash(b)

    @given(st.lists(
        st.builds(EntityId, st.sampled_from(["a", "b", "fb:1"]),
                  st.sampled_from([None, "fb:1", "a"]), st.booleans()),
        min_size=2, max_size=2,
    ))
    def test_not_equal_is_the_negation_of_equal(self, pair):
        a, b = pair
        assert (a != b) == (not a == b) == (a.key != b.key)


class TestCheckMessages:
    @pytest.mark.parametrize("args, message", [
        (("x", 3, ("a",)), "valency must be 1 or 2, got 3"),
        (("x", 2, ("a",)), "slot_types length must equal valency"),
        (("x", 1, ("a",)), "unary predicates need a case marker .1 or .2"),
        (("x", 1, ("a",), ".3"), "unary predicates need a case marker .1 or .2"),
        (("x", 2, ("a", "b"), ".1"), "binary predicates carry no case marker"),
    ])
    def test_typed_predicate(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TypedPredicate(*args)

    def test_proposition(self):
        with pytest.raises(ValueError, match="^argument count must equal predicate valency$"):
            Proposition(KILL, (EntityId("a"),))
        with pytest.raises(ValueError, match="^sentence_idx must be >= 0$"):
            Proposition(DIE, (EntityId("a"),), "a1", None, -1)

    @pytest.mark.parametrize("pairs", [((1, 1), (1, 2)), ((1, 2),), ((1, 1), (2, 3))])
    def test_arg_map(self, pairs):
        with pytest.raises(ValueError) as info:
            ArgMap(pairs)
        assert str(info.value) == f"invalid argument map {pairs}"

    @pytest.mark.parametrize("args, message", [
        ((KILL, DIE, BB, ArgMap.from_slot(1), 0.5), "kind BB inconsistent with valencies"),
        ((DIE, DIE, UU, SWAP, 0.5), "argument map 1:2,2:1 invalid for a UU edge"),
        ((KILL, DIE, BU, ID2, 0.5), "argument map 1:1,2:2 invalid for a BU edge"),
        ((KILL, KILL, BB, ID2, 1.5), r"score 1.5 outside \[0, 1\]"),
    ])
    def test_entailment_edge(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EntailmentEdge(*args)

    def test_entity_surface(self):
        with pytest.raises(ValueError, match="^entity surface must be non-empty$"):
            EntityId("")


class TestRepr:
    def test_fields_in_order(self):
        assert repr(KILL) == (
            "TypedPredicate(lemma='kill', valency=2, slot_types=('person', 'person'), "
            "case_marker=None)"
        )
        assert repr(SWAP) == "ArgMap(pairs=((1, 2), (2, 1)))"
        assert repr(EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.5)) == (
            f"EntailmentEdge(premise={KILL!r}, hypothesis={DIE!r}, kind='BU', "
            "arg_map=ArgMap(pairs=((2, 1),)), score=0.5)"
        )
        p = Proposition(DIE, (EntityId("b", "Q2", True),), "a1", dt.date(2021, 1, 2), 3, True)
        assert repr(p) == (
            f"Proposition(predicate={DIE!r}, args=(EntityId('b'=Q2),), article_id='a1', "
            "date=datetime.date(2021, 1, 2), sentence_idx=3, negated=True)"
        )
        assert repr(QueryResult(0.25)) == "QueryResult(score=0.25, path=(), backed_off=False)"
        assert repr(AnswerRecord("q1", "exact", 1.0, "p1")) == (
            "AnswerRecord(question_id='q1', model_id='exact', confidence=1.0, "
            "best_evidence='p1', backed_off=False)"
        )
        assert repr(PRPoint(0.5, 1.0, 0.25)) == "PRPoint(threshold=0.5, precision=1.0, recall=0.25)"
        assert repr(AccuracyAtK(0.5, 10, 4)) == "AccuracyAtK(accuracy=0.5, k_requested=10, k_used=4)"

    def test_configs_show_their_defaults(self):
        assert repr(LocalBuildConfig()) == (
            "LocalBuildConfig(features=FeatureConfig(min_count=3), edge_threshold=0.01)"
        )
        assert repr(GlobalConfig()) == (
            "GlobalConfig(lambda_para=1.0, lambda_cross=0.5, paraphrase_tau=0.9)"
        )
        assert repr(QaGenConfig(seed=3)) == (
            "QaGenConfig(window_days=3, entity_min=6, predicate_min=11, "
            "positives_per_partition=8, seed=3)"
        )

    def test_entity_shows_surface_and_kb_id(self):
        assert repr(EntityId("obama")) == "EntityId('obama')"
        assert repr(EntityId("obama", "fb:1", True)) == "EntityId('obama'=fb:1)"


class TestOrdering:
    def test_predicates_order_by_their_fields(self):
        # globalize lists paraphrase pairs in this order
        preds = [pred("kill", "person", "person"), pred("die.2", "person"),
                 pred("kill", "location", "person"), pred("die.1", "person"),
                 pred("die.1", "location"), pred("be.a.spy.1", "person")]
        fields = lambda p: (p.lemma, p.valency, p.slot_types, p.case_marker)  # noqa: E731
        assert sorted(preds) == sorted(preds, key=fields)
        assert [p.token() for p in sorted(preds)] == [
            "be.a.spy.1#person", "die.1#location", "die.1#person", "die.2#person",
            "kill#location#person", "kill#person#person",
        ]

    def test_edge_codes_follow_map_order_within_a_kind(self):
        for kind in (BB, BU, UU):
            maps = [amap for k, amap in EDGE_CODES if k == kind]
            assert maps == sorted(maps)
        assert ID2 < SWAP and ArgMap.from_slot(1) < ArgMap.from_slot(2)

    def test_edges_order_by_their_fields(self):
        swap = EntailmentEdge(KILL, KILL, BB, SWAP, 0.1)
        identity = EntailmentEdge(KILL, KILL, BB, ID2, 0.9)
        slot2 = EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(2), 0.5)
        slot1 = EntailmentEdge(KILL, DIE, BU, ArgMap.from_slot(1), 0.7)
        assert sorted([swap, slot2, identity, slot1]) == [slot1, slot2, identity, swap]


class TestImmutable:
    @pytest.mark.parametrize("value", [
        EntityId("a"), KILL, prop("kill", ("a", "b")), SWAP,
        EntailmentEdge(KILL, DIE, BU, ID1, 0.5), QueryResult(0.5),
        AnswerRecord("q", "exact", 0.0), PRPoint(0.5, 0.5, 0.5), AccuracyAtK(1.0, 1, 1),
        FeatureConfig(), LocalBuildConfig(), GlobalConfig(), QaGenConfig(),
    ], ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.extra = 1


class TestPredSortKey:
    def test_predicate_and_slot_keys(self):
        assert _pred_sort_key(KILL) == ("kill#person#person", 0)
        assert _pred_sort_key((KILL, 2)) == ("kill#person#person", 2)
        assert _pred_sort_key((DIE, 1)) == ("die.1#person", 1)

    def test_vectors_come_in_token_then_slot_order(self):
        c = corpus(*[prop(name, args) for name, args in (
            ("kill", ("a", "b")), ("hire", ("b", "a")), ("die.1", ("a",)))] * 3)
        assert list(build_vectors(count(c)[0], FeatureConfig(1))) == [
            pred("hire", "person", "person"), KILL]
        assert list(build_vectors(count(c)[1], FeatureConfig(1))) == [
            (DIE, 1), (pred("hire", "person", "person"), 1),
            (pred("hire", "person", "person"), 2), (KILL, 1), (KILL, 2)]
