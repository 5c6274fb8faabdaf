"""Count store and PMI vector tests.

Derived expectations are computed from the PMI definition by hand:
pmi = max(0, ln((joint/total) / ((pred/total) * (feat/total)))).
"""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from entgraph.features import (
    PAIR,
    SLOT,
    CountStore,
    FeatureConfig,
    build_vectors,
    count,
    pmi,
)
from conftest import corpus, pred, prop

KILL = pred("kill", "person", "person")


class TestCount:
    def test_singleton_pair_mode(self):
        store = count(corpus(prop("kill", ("a", "b"))), PAIR)
        assert store.joint == {(KILL, ("a", "b")): 1}
        assert store.total == 1

    def test_singleton_slot_mode(self):
        store = count(corpus(prop("kill", ("a", "b"))), SLOT)
        assert store.joint == {((KILL, 1), "a"): 1, ((KILL, 2), "b"): 1}
        assert store.total == 2

    def test_pair_marginal(self):
        store = count(corpus(prop("kill", ("a", "b")), prop("kill", ("a", "c"))), PAIR)
        assert store.pred_marginal[KILL] == 2

    def test_unary_counts_single_slot(self):
        store = count(corpus(prop("die.1", ("a",))), SLOT)
        die = pred("die.1", "person")
        assert store.joint == {((die, 1), "a"): 1}

    def test_empty_corpus(self):
        store = count(corpus(), PAIR)
        assert store.total == 0 and not store.joint

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            count(corpus(), "trigram")

    def test_consistency_invariant(self):
        store = count(
            corpus(
                prop("kill", ("a", "b")),
                prop("kill", ("a", "c")),
                prop("die.1", ("b",)),
            ),
            SLOT,
        )
        by_pred, by_feat = Counter(), Counter()
        for (p, f), n in store.joint.items():
            by_pred[p] += n
            by_feat[f] += n
        assert by_pred == store.pred_marginal
        assert by_feat == store.feat_marginal
        assert store.total == sum(store.joint.values())


class TestPmi:
    def test_degenerate_single_event_is_zero(self):
        store = CountStore(PAIR)
        store.add("p", "a")
        assert pmi(store, "p", "a") == 0.0

    def test_hand_computed_log2(self):
        # joint=2, pred=2, feat=2, total=4 -> ln((2/4)/((2/4)*(2/4))) = ln 2
        store = CountStore(PAIR)
        store.add("p", "a", 2)
        store.add("q", "b", 2)
        store.feat_marginal["a"] = 2  # keep feat marginal at 2
        store.feat_marginal["b"] = 2
        assert pmi(store, "p", "a") == pytest.approx(math.log(2), abs=1e-15)

    def test_negative_pmi_clipped(self):
        # anti-correlated: joint=1, pred=10, feat=10, total=20 -> ln(0.2) < 0
        store = CountStore(PAIR)
        store.joint[("p", "a")] = 1
        store.pred_marginal["p"] = 10
        store.feat_marginal["a"] = 10
        store.total = 20
        assert pmi(store, "p", "a") == 0.0

    def test_unseen_is_zero(self):
        store = CountStore(PAIR)
        store.add("p", "a", 2)
        assert pmi(store, "p", "zzz") == 0.0

    @given(
        st.lists(
            st.tuples(st.sampled_from("pqr"), st.sampled_from("abcd")),
            min_size=1,
            max_size=64,
        )
    )
    def test_weights_finite_and_nonnegative(self, events):
        store = CountStore(PAIR)
        for p, f in events:
            store.add(p, f)
        for p, f in events:
            w = pmi(store, p, f)
            assert w >= 0.0 and math.isfinite(w)


class TestBuildVectors:
    def test_pair_and_slot_vectors_from_running_example(self):
        # build(:company,:thing): slot 1 features Apple, slot 2 features iPhone
        build = pred("build", "organization", "thing")
        props = [
            prop("build", ("apple", "iphone"), types=("organization", "thing")),
            prop("build", ("apple", "ipad"), types=("organization", "thing")),
            prop("build", ("microsoft", "windows"), types=("organization", "thing")),
            prop("found", ("jobs", "apple"), types=("person", "organization")),
            prop("found", ("gates", "microsoft"), types=("person", "organization")),
            prop("found", ("bezos", "amazon"), types=("person", "organization")),
        ]
        slots = build_vectors(count(corpus(*props), SLOT), FeatureConfig(min_count=3))
        v1 = slots[(build, 1)]
        v2 = slots[(build, 2)]
        assert "apple" in v1
        assert "iphone" in v2
        # a slot vector's type is the slot type its key names
        assert {key: key[0].slot_types[key[1] - 1] for key in slots if key[0] == build} == {
            (build, 1): "organization", (build, 2): "thing"}

    def test_min_count_threshold(self):
        props = [prop("kill", ("a", "b"))] * 2 + [prop("die.1", (c,)) for c in "bcdef"]
        pairs = build_vectors(count(corpus(*props), PAIR), FeatureConfig(min_count=3))
        assert KILL not in pairs  # only 2 occurrences
        pairs = build_vectors(count(corpus(*props), PAIR), FeatureConfig(min_count=2))
        assert KILL in pairs

    def test_zero_weight_features_dropped(self):
        # single-event store: every pmi is ln(1) = 0, so vector is empty
        pairs = build_vectors(count(corpus(prop("kill", ("a", "b"))), PAIR),
                              FeatureConfig(min_count=1))
        assert pairs[KILL] == {}

    def test_empty_store(self):
        assert build_vectors(count(corpus(), PAIR)) == {}

    def test_shared_entity_in_both_slot_vectors(self):
        props = [
            prop("kill", ("a", "b")), prop("kill", ("c", "b")), prop("kill", ("d", "b")),
            prop("die.1", ("b",)), prop("die.1", ("e",)), prop("die.1", ("f",)),
            # filler pushes totals up so PMI stays positive
            *[prop("chatter.1", (f"x{i}",)) for i in range(12)],
        ]
        slots = build_vectors(count(corpus(*props), SLOT), FeatureConfig(min_count=3))
        die = pred("die.1", "person")
        assert "b" in slots[(KILL, 2)]
        assert "b" in slots[(die, 1)]

    def test_slot_vector_covers_exactly_seen_entities(self):
        props = [
            prop("kill", ("a", "b")), prop("kill", ("c", "d")), prop("kill", ("e", "f")),
            *[prop("chatter.1", (f"x{i}",)) for i in range(20)],
        ]
        slots = build_vectors(count(corpus(*props), SLOT), FeatureConfig(min_count=3))
        assert set(slots[(KILL, 1)]) == {"a", "c", "e"}
        assert set(slots[(KILL, 2)]) == {"b", "d", "f"}

    def test_deterministic_rebuild(self):
        props = [prop("kill", (f"k{i}", f"v{i}")) for i in range(5)] + [
            prop("die.1", (f"v{i}",)) for i in range(8)
        ]
        store = count(corpus(*props), SLOT)
        first = build_vectors(store)
        second = build_vectors(store)
        assert list(first.items()) == list(second.items())


def test_no_module_imports_pickle():
    # artifact formats must not execute code on load
    import ast
    from pathlib import Path

    import entgraph

    for path in Path(entgraph.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "pickle" for m in modules), path
