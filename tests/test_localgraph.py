"""Inclusion oracle, scoring formulas, and subgraph construction tests.

Derived score expectations are frozen from direct evaluation of the
definitions (documented inline); the oracle is cross-checked against an
independent enumeration in test_acceptance.py at scale.
"""

import functools
import math
import operator
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from entgraph.features import FeatureConfig, build_vectors, count
from entgraph.localgraph import (
    BB,
    BU,
    EDGE_CODES,
    UU,
    ArgMap,
    EntailmentEdge,
    LocalBuildConfig,
    TypedSubgraph,
    _subgraphs,
    build_local_graphs,
    canonical_signature,
    edge_kind,
    valid_maps,
)
from entgraph.model import TypedPredicate

from conftest import corpus, ent, pred, prop
from oracles import (
    binc,
    build_bivalent_pairwise,
    build_univalent_pairwise,
    inclusion_oracle,
    lin_similarity,
    swapped_pair_features,
    weeds_precision,
)


class TestArgMap:
    def test_valid_map_families(self):
        assert valid_maps(2, 2) == (ArgMap.identity(2), ArgMap.swap())
        assert valid_maps(2, 1) == (ArgMap.from_slot(1), ArgMap.from_slot(2))
        assert valid_maps(1, 1) == (ArgMap.identity(1),)
        assert valid_maps(1, 2) == ()

    def test_edge_kind_of_valencies(self):
        assert [edge_kind(*v) for v in ((2, 2), (2, 1), (1, 1), (1, 2), (3, 3))] == [
            BB, BU, UU, None, None]

    def test_invalid_maps_rejected(self):
        with pytest.raises(ValueError):
            ArgMap(((1, 1), (1, 2)))  # premise slot reused
        with pytest.raises(ValueError):
            ArgMap(((1, 2), (2, 2)))  # hypothesis slot reused

    def test_constructors_return_canonical_instances(self):
        maps = (*valid_maps(2, 2), *valid_maps(2, 1), *valid_maps(1, 1))
        assert len({id(m) for m in maps}) == 4  # from_slot(1) is identity(1)
        assert ArgMap.identity(2) is maps[0] and ArgMap.swap() is maps[1]
        assert ArgMap.from_slot(1) is ArgMap.identity(1) is maps[4]
        assert ArgMap.from_slot(2) is maps[3]


class TestOracle:
    def test_paper_kill_die_selection(self):
        # selecting argument 2 of the killings finds them among the dyings
        premises = {("mustard", "boddy")}
        hypotheses = {("boddy",)}
        assert inclusion_oracle(premises, hypotheses, ArgMap.from_slot(2)) is True

    def test_reflexive_identity(self):
        tuples = {("a", "b"), ("c", "d")}
        assert inclusion_oracle(tuples, tuples, ArgMap.identity(2)) is True

    def test_missing_subtuple_fails(self):
        premises = {("a", "b"), ("c", "d")}
        hypotheses = {("b",)}
        assert inclusion_oracle(premises, hypotheses, ArgMap.from_slot(2)) is False

    def test_swap_map(self):
        premises = {("google", "youtube")}
        hypotheses = {("youtube", "google")}
        assert inclusion_oracle(premises, hypotheses, ArgMap.swap()) is True
        assert inclusion_oracle(premises, hypotheses, ArgMap.identity(2)) is False

    def test_arity_mismatch_is_error(self):
        with pytest.raises(ValueError):
            inclusion_oracle({("a",)}, {("b",)}, ArgMap.from_slot(2))
        with pytest.raises(ValueError):
            inclusion_oracle({("a", "b")}, {("c", "d")}, ArgMap.from_slot(2))

    @given(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    )
    def test_transitive_on_tuple_sets(self, a, b, c):
        amap = ArgMap.identity(2)
        if inclusion_oracle(a, b, amap) and inclusion_oracle(b, c, amap):
            assert inclusion_oracle(a, c, amap)


# weight dictionaries for hypothesis-driven formula properties
weights = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    max_size=8,
)


class TestScoreFormulas:
    def test_weeds_full_coverage(self):
        assert weeds_precision({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.1, "c": 9}) == 1.0

    def test_weeds_disjoint(self):
        assert weeds_precision({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_weeds_half(self):
        assert weeds_precision({"a": 1.0, "b": 1.0}, {"a": 1.0}) == pytest.approx(0.5)

    def test_weeds_empty_u(self):
        assert weeds_precision({}, {"a": 1.0}) == 0.0

    def test_lin_identity(self):
        v = {"a": 1.0, "b": 3.0}
        assert lin_similarity(v, v) == pytest.approx(1.0)

    def test_lin_disjoint(self):
        assert lin_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_lin_two_thirds(self):
        # (1 + 1) / (2 + 1) = 2/3
        assert lin_similarity({"a": 1.0, "b": 1.0}, {"a": 1.0}) == pytest.approx(2 / 3)

    def test_binc_identical(self):
        v = {"a": 1.0, "b": 3.0}
        assert binc(v, v) == pytest.approx(1.0)

    def test_binc_annihilator(self):
        assert binc({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_binc_geometric_mean(self):
        # WP = 0.5, Lin = 2/3 -> sqrt(1/3)
        assert binc({"a": 1.0, "b": 1.0}, {"a": 1.0}) == pytest.approx(
            math.sqrt(1 / 3)
        )

    @given(weights, weights)
    def test_ranges_and_symmetry(self, u, v):
        wp = weeds_precision(u, v)
        li = lin_similarity(u, v)
        bi = binc(u, v)
        assert 0.0 <= wp <= 1.0 + 1e-12
        assert 0.0 <= li <= 1.0 + 1e-12
        assert 0.0 <= bi <= 1.0 + 1e-12
        assert li == pytest.approx(lin_similarity(v, u))

    @given(weights)
    def test_weeds_one_iff_support_included(self, u):
        v = dict(u)
        v["z"] = 1.0  # superset support
        if u:
            assert weeds_precision(u, v) == pytest.approx(1.0)
        # strictly smaller support cannot reach 1
        if len(u) >= 2:
            smaller = dict(list(sorted(u.items()))[:-1])
            assert weeds_precision(u, smaller) < 1.0

    @given(weights)
    def test_directionality_when_v_has_extra_mass(self, u):
        v = dict(u)
        v["z"] = 5.0
        if u:
            assert binc(u, v) > binc(v, u)


def plain_sum(values):
    """Floats added one at a time, left to right, each sum rounded."""
    return functools.reduce(operator.add, values, 0.0)


class TestLeftToRightSums:
    """Scores add their weights left to right, the way ``sum`` did before
    Python 3.12 made it compensated. Each case uses weights on which the
    two sums differ, so a compensated sum would change the score's bits."""

    def test_weeds_precision(self):
        u = {**{f"f{i}": 0.1 for i in range(10)}, "g": 1.0}
        v = {f"f{i}": 0.1 for i in range(10)}
        shared = [0.1] * 10
        assert plain_sum(shared) != math.fsum(shared)
        expected = plain_sum(shared) / plain_sum([*shared, 1.0])
        assert expected != math.fsum(shared) / math.fsum([*shared, 1.0])
        assert weeds_precision(u, v) == expected

    def test_lin_similarity(self):
        u = {f"f{i}": 0.1 for i in range(8)}
        v = {f"f{i}": 0.7 for i in range(8)}
        expected = plain_sum([0.1 + 0.7] * 8) / (plain_sum([0.1] * 8) + plain_sum([0.7] * 8))
        compensated = math.fsum([0.1 + 0.7] * 8) / (math.fsum([0.1] * 8) + math.fsum([0.7] * 8))
        assert expected != compensated
        assert lin_similarity(u, v) == expected


def kill_die_corpus():
    """Every kill object dies; only half the dying are killed.

    Slot-event total 32: PMI(kill@2, v) = ln 4, PMI(die@1, v) = ln 2,
    PMI(die@1, w) = ln 4, so BInc(kill@2 -> die@1) = sqrt(0.6) and the
    reverse direction sqrt(0.2).
    """
    props = []
    for i in range(1, 5):
        props.append(prop("kill", (f"k{i}", f"v{i}")))
        props.append(prop("die.1", (f"v{i}",)))
    for i in range(5, 9):
        props.append(prop("die.1", (f"w{i}",)))
    for i in range(16):
        props.append(prop("chatter.1", (f"x{i}",)))
    return corpus(*props)


class TestKillDieDirectionality:
    def test_bu_edge_scores(self):
        graphs = build_local_graphs(kill_die_corpus())
        sub = graphs[("person", "person")]
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        edges = sub.find_edges(kill, die, ArgMap.from_slot(2))
        assert len(edges) == 1
        assert edges[0].score == pytest.approx(math.sqrt(0.6), abs=1e-12)
        assert edges[0].kind == BU
        # subject slot does not entail dying
        assert sub.find_edges(kill, die, ArgMap.from_slot(1)) == []

    def test_reverse_direction_strictly_lower(self):
        c = kill_die_corpus()
        slots = build_vectors(count(c)[1], FeatureConfig(min_count=3))
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        forward = binc(slots[(kill, 2)], slots[(die, 1)])
        reverse = binc(slots[(die, 1)], slots[(kill, 2)])
        assert forward == pytest.approx(math.sqrt(0.6), abs=1e-12)
        assert reverse == pytest.approx(math.sqrt(0.2), abs=1e-12)
        assert forward > reverse


def buy_sell_corpus():
    """Every buy pair appears swapped with sell.to; sell.to has extras."""
    props = []
    for i in range(1, 5):
        props.append(prop("buy", (F"g{i}", f"y{i}"), types=("organization",) * 2))
        props.append(prop("sell.to", (f"y{i}", f"g{i}"), types=("organization",) * 2))
    for i in range(5, 7):
        props.append(prop("sell.to", (f"y{i}", f"g{i}"), types=("organization",) * 2))
    for i in range(10):
        props.append(prop("meet", (f"a{i}", f"b{i}"), types=("organization",) * 2))
    return corpus(*props)


class TestSwapMap:
    def test_buy_entails_sell_via_swap(self):
        graphs = build_local_graphs(buy_sell_corpus())
        sub = graphs[("organization", "organization")]
        buy = pred("buy", "organization", "organization")
        sell = pred("sell.to", "organization", "organization")
        edges = sub.find_edges(buy, sell)
        assert len(edges) == 1
        edge = edges[0]
        assert edge.arg_map == ArgMap.swap()
        # WP = 1; Lin = (4 ln5 + 4 ln(10/3)) / (4 ln5 + 6 ln(10/3))
        lin = (4 * math.log(5) + 4 * math.log(10 / 3)) / (
            4 * math.log(5) + 6 * math.log(10 / 3)
        )
        assert edge.score == pytest.approx(math.sqrt(lin), abs=1e-12)
        assert edge.score >= 0.7

    def test_swapped_features_helper(self):
        assert swapped_pair_features({("a", "b"): 1.0}) == {("b", "a"): 1.0}


class TestSubgraphConstruction:
    def test_single_predicate_no_edges(self):
        c = corpus(*[prop("kill", (f"k{i}", f"v{i}")) for i in range(4)])
        graphs = build_local_graphs(c)
        sub = graphs[("person", "person")]
        assert len(sub.vertices) == 1
        assert sub.edges == []

    def test_defeat_entails_be_winner(self):
        props = []
        for i in range(1, 5):
            props.append(prop("defeat", (f"d{i}", f"l{i}")))
            props.append(prop("be.winner.1", (f"d{i}",)))
        for i in range(20):
            props.append(prop("chatter.1", (f"x{i}",)))
        graphs = build_local_graphs(corpus(*props))
        sub = graphs[("person", "person")]
        edges = sub.find_edges(
            pred("defeat", "person", "person"), pred("be.winner.1", "person"),
            ArgMap.from_slot(1),
        )
        assert len(edges) == 1
        assert edges[0].score == pytest.approx(1.0)

    def test_paraphrase_mutual_uu_edges(self):
        props = []
        for i in range(1, 5):
            props.append(prop("be.winner.1", (f"e{i}",)))
            props.append(prop("be.champion.1", (f"e{i}",)))
        for i in range(16):
            props.append(prop("chatter.1", (f"x{i}",)))
        graphs = build_local_graphs(corpus(*props))
        sub = graphs[("person",)]
        win = pred("be.winner.1", "person")
        champ = pred("be.champion.1", "person")
        assert sub.find_edges(win, champ)[0].score == pytest.approx(1.0)
        assert sub.find_edges(champ, win)[0].score == pytest.approx(1.0)

    def test_empty_type_empty_subgraph(self):
        graphs = build_local_graphs(corpus(*[prop("kill", (f"k{i}", f"v{i}")) for i in range(3)]))
        assert ("location",) not in graphs

    def test_chained_inclusion_ordering_by_brute_force(self):
        # supports: sprint in run in move; scores brute-forced from formulas
        props = []
        entities = [f"e{i}" for i in range(1, 7)]
        for e in entities[:2]:
            props.append(prop("sprint.1", (e,)))
        for e in entities[:4]:
            props.append(prop("run.1", (e,)))
        for e in entities[:6]:
            props.append(prop("move.1", (e,)))
        for i in range(24):
            props.append(prop("chatter.1", (f"x{i}",)))
        c = corpus(*props)
        graphs = build_local_graphs(
            c, LocalBuildConfig(FeatureConfig(min_count=2), edge_threshold=0.0)
        )
        sub = graphs[("person",)]
        slots = build_vectors(count(c)[1], FeatureConfig(min_count=2))
        names = ("sprint.1", "run.1", "move.1")
        for a in names:
            for b in names:
                if a == b:
                    continue
                expected = binc(
                    slots[(pred(a, "person"), 1)],
                    slots[(pred(b, "person"), 1)],
                )
                found = sub.find_edges(pred(a, "person"), pred(b, "person"))
                if expected > 0.0:
                    assert found[0].score == pytest.approx(expected, abs=1e-12)
                else:
                    assert found == []
        up = sub.find_edges(pred("sprint.1", "person"), pred("run.1", "person"))[0]
        down = sub.find_edges(pred("run.1", "person"), pred("sprint.1", "person"))[0]
        assert up.score > down.score

    def test_unary_reachable_from_two_bivalent_subgraphs(self):
        props = []
        for i in range(1, 5):
            props.append(prop("defeat", (f"f{i}", f"o{i}")))
            props.append(
                prop("fly.into", (f"f{i}", f"c{i}"), types=("person", "location"))
            )
            props.append(prop("be.famous.1", (f"f{i}",)))
        for i in range(20):
            props.append(prop("chatter.1", (f"x{i}",)))
        graphs = build_local_graphs(corpus(*props))
        famous = pred("be.famous.1", "person")
        hosting = [
            sig
            for sig, sub in graphs.items()
            if famous in sub.vertices
            and any(e.hypothesis == famous and e.kind == BU for e in sub.edges)
        ]
        assert len(hosting) >= 2
        assert ("location", "person") in hosting or ("person", "person") in hosting

    def test_bu_edge_types_match(self):
        graphs = build_local_graphs(kill_die_corpus())
        for sub in graphs.values():
            for e in sub.edges:
                if e.kind == BU:
                    premise_slot = e.arg_map.pairs[0][0]
                    assert (
                        e.premise.slot_types[premise_slot - 1]
                        == e.hypothesis.slot_types[0]
                    )

    def test_edge_threshold_drops_weak_edges(self):
        c = kill_die_corpus()
        strict = build_local_graphs(c, LocalBuildConfig(edge_threshold=0.99))
        sub = strict[("person", "person")]
        assert all(e.score >= 0.99 for e in sub.edges)

    def test_no_self_edges(self):
        graphs = build_local_graphs(kill_die_corpus())
        for sub in graphs.values():
            for e in sub.edges:
                assert e.premise != e.hypothesis


class TestSubgraphInvariants:
    def test_kind_constraints_enforced(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        bu = EntailmentEdge(kill, die, BU, ArgMap.from_slot(2), 0.5)
        with pytest.raises(ValueError):
            TypedSubgraph(("person",), {kill, die}, [bu])

    def test_edge_endpoints_must_be_vertices(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        bu = EntailmentEdge(kill, die, BU, ArgMap.from_slot(2), 0.5)
        with pytest.raises(ValueError, match="edge endpoint missing from vertex set"):
            TypedSubgraph(("person", "person"), {kill}, [bu])

    def test_edges_sorted_by_premise_hypothesis_tokens_then_map(self):
        import random

        preds = [pred(n, "person", "person") for n in ("kill", "beat", "top")]
        preds += [pred(n, "person") for n in ("die.1", "win.1")]
        edges = [
            EntailmentEdge(p, q, BB if q.valency == 2 else BU, m, 0.5)
            for p in preds[:3] for q in preds if p != q
            for m in valid_maps(2, q.valency)
        ]
        random.Random(7).shuffle(edges)
        sub = TypedSubgraph(("person", "person"), set(preds), edges)
        assert sub.edges == sorted(
            edges, key=lambda e: (e.premise.token(), e.hypothesis.token(), e.arg_map)
        )

    def test_with_scores_takes_one_score_per_edge_in_order(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        edges = [EntailmentEdge(kill, die, BU, ArgMap.from_slot(s), 0.5) for s in (1, 2)]
        sub = TypedSubgraph(("person", "person"), {kill, die}, edges)
        assert [e.score for e in sub.with_scores([0.25, 0.75]).edges] == [0.25, 0.75]
        with pytest.raises(ValueError):
            sub.with_scores([0.25])

    def test_with_scores_shares_all_but_the_score_column(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        edges = [EntailmentEdge(kill, die, BU, ArgMap.from_slot(s), 0.5) for s in (1, 2)]
        sub = TypedSubgraph(("person", "person"), {kill, die}, edges)
        new = sub.with_scores([0.25, 0.75])
        for name in ("vertices", "token_ids", "premise_ids", "hypothesis_ids", "codes"):
            assert getattr(new, name) is getattr(sub, name), name
        assert list(new.scores) == [0.25, 0.75] and list(sub.scores) == [0.5, 0.5]
        assert new.edges[0] == new.edge(0) and new.edges[0].score == 0.25

    def test_edges_are_built_from_the_columns_after_with_scores(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        edges = [EntailmentEdge(kill, die, BU, ArgMap.from_slot(s), 0.5) for s in (1, 2)]
        sub = TypedSubgraph(("person", "person"), {kill, die}, edges)
        assert sub.edges == edges  # read first: an edge the subgraph kept would reach the copy
        new = sub.with_scores([0.25, 0.75])
        assert new.edges == [new.edge(i) for i in range(len(new.scores))] == [
            e._replace(score=s) for e, s in zip(edges, (0.25, 0.75))]

    def test_edge_kind_valency_consistency(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        with pytest.raises(ValueError):
            EntailmentEdge(kill, die, BB, ArgMap.from_slot(2), 0.5)

    def test_map_must_suit_edge_kind(self):
        die = pred("die.1", "person")
        perish = pred("perish.1", "person")
        with pytest.raises(ValueError):
            EntailmentEdge(die, perish, UU, ArgMap.from_slot(2), 0.5)

    def test_duplicate_edges_rejected(self):
        kill = pred("kill", "person", "person")
        die = pred("die.1", "person")
        edges = [EntailmentEdge(kill, die, BU, ArgMap.from_slot(2), s) for s in (0.5, 0.6)]
        with pytest.raises(ValueError, match="duplicate"):
            TypedSubgraph(("person", "person"), {kill, die}, edges)

    def test_from_columns_refuses_what_init_sorts(self):
        kill, slay = pred("kill", "person", "person"), pred("slay", "person", "person")
        die = pred("die.1", "person")
        edges = [
            EntailmentEdge(slay, kill, BB, ArgMap.swap(), 0.25),
            EntailmentEdge(kill, slay, BB, ArgMap.identity(2), 0.5),
            EntailmentEdge(kill, die, BU, ArgMap.from_slot(2), 0.75),
        ]
        sub = TypedSubgraph(("person", "person"), [slay, die, kill], edges)
        assert sub.vertices == (die, kill, slay)
        assert [e.score for e in sub.edges] == [0.75, 0.5, 0.25]
        columns = (sub.premise_ids, sub.hypothesis_ids, sub.codes, sub.scores)
        again = TypedSubgraph.from_columns(sub.signature, sub.vertices, *columns)
        assert again.edges == sub.edges

        def refused(reason, vertices, rows):
            p, h, c, s = zip(*rows)
            with pytest.raises(ValueError, match=reason):
                TypedSubgraph.from_columns(sub.signature, vertices, array("i", p),
                                           array("i", h), array("b", c), array("d", s))

        rows = list(zip(*columns))
        # kill first: its edge ids now point at the vertices as listed
        refused(r"vertex 'die\.1#person' after 'kill#person#person', out of token order",
                (kill, die, slay), [(0, 1, 3, 0.75)])
        refused(r"edge out of order: kill#person#person -> die\.1#person under 2:1",
                sub.vertices, [rows[1], rows[0], rows[2]])
        refused(r"two vertices share the token 'kill#person#person'",
                (die, kill, kill, slay), [(1, 0, 3, 0.75)])
        refused(r"duplicate edge kill#person#person -> slay#person#person under 1:1,2:2",
                sub.vertices, [rows[0], rows[1], (*rows[1][:3], 0.125), rows[2]])

    @pytest.mark.parametrize("columns, reason", [
        # a two-element premise column beside one-element columns
        (([0, 0], [1], [3], [0.5]),
         "edge columns of unequal length: 2 premise ids, 1 hypothesis ids, 1 codes, 1 scores"),
        (([0], [1], [3], [0.5, 0.5]),
         "edge columns of unequal length: 1 premise ids, 1 hypothesis ids, 1 codes, 2 scores"),
        (([-1], [1], [3], [0.5]), r"premise id -1 outside \[0, 2\)"),
        (([5], [1], [3], [0.5]), r"premise id 5 outside \[0, 2\)"),
        (([1], [7], [3], [0.5]), r"hypothesis id 7 outside \[0, 2\)"),
        (([1], [-2], [3], [0.5]), r"hypothesis id -2 outside \[0, 2\)"),
        (([1], [0], [9], [0.5]), r"edge code 9 outside \[0, 5\)"),
        (([1], [0], [-1], [0.5]), r"edge code -1 outside \[0, 5\)"),
    ])
    def test_from_columns_refuses_columns_that_do_not_fit(self, columns, reason):
        kill, die = pred("kill", "person", "person"), pred("die.1", "person")
        p, h, c, s = columns
        with pytest.raises(ValueError, match=reason):
            TypedSubgraph.from_columns(("person", "person"), (die, kill), array("i", p),
                                       array("i", h), array("b", c), array("d", s))

    def test_from_columns_takes_each_code_where_its_valencies_fit(self):
        # BB joins two binaries and BU a binary to a unary, in a bivalent
        # subgraph; UU joins two unaries, in a univalent one
        fits = {(2, BB, 2, 2), (2, BU, 2, 1), (1, UU, 1, 1)}
        binary, unary, other = (pred("kill", "person", "person"), pred("die.1", "person"),
                                pred("perish.1", "person"))
        accepted = set()
        for signature in (("person", "person"), ("person",)):
            for code, (kind, _) in enumerate(EDGE_CODES):
                for premise in (binary, unary):
                    for hypothesis in (binary, other):
                        vertices = sorted({premise, hypothesis}, key=TypedPredicate.token)
                        ids = [vertices.index(premise)], [vertices.index(hypothesis)]
                        try:
                            TypedSubgraph.from_columns(
                                signature, vertices, array("i", ids[0]), array("i", ids[1]),
                                array("b", [code]), array("d", [0.5]))
                        except ValueError as exc:
                            assert (f"{kind} edge not allowed in this subgraph" in str(exc)
                                    or f"kind {kind} inconsistent with valencies" in str(exc))
                        else:
                            accepted.add((len(signature), kind,
                                          premise.valency, hypothesis.valency))
        assert accepted == fits

    def test_score_bounds(self):
        die = pred("die.1", "person")
        perish = pred("perish.1", "person")
        with pytest.raises(ValueError):
            EntailmentEdge(die, perish, UU, ArgMap.identity(1), 1.5)

    def test_canonical_signature_sorted(self):
        assert canonical_signature(("person", "location")) == ("location", "person")
        assert canonical_signature(("person",)) == ("person",)


@st.composite
def small_typed_corpus(draw):
    """Random propositions plus enough filler that PMI never clips."""
    n_entities = draw(st.integers(3, 6))
    entities = [f"e{i}" for i in range(n_entities)]
    props = []
    for name, valency in (("u1.1", 1), ("u2.1", 1), ("b1", 2), ("b2", 2)):
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(entities)] * valency),
                min_size=1,
                max_size=8,
            )
        )
        for row in rows:
            if valency == 2:
                props.append(prop(name, row))
            else:
                props.append(prop(name, row))
    for i in range(600):
        props.append(prop("filler.1", (f"z{i}",)))
    return corpus(*props)


class TestRelaxationConsistency:
    @settings(max_examples=30, deadline=None)
    @given(small_typed_corpus())
    def test_oracle_true_implies_full_weeds_precision(self, c):
        slots = build_vectors(count(c)[1], FeatureConfig(min_count=1))
        tuples: dict = {}
        for p in c:
            tuples.setdefault(p.predicate, set()).add(p.arg_keys)
        preds = [p for p in tuples if p.lemma != "filler"]
        for p in preds:
            for h in preds:
                if h.valency > p.valency or p == h:
                    continue
                for amap in valid_maps(p.valency, h.valency):
                    if not inclusion_oracle(tuples[p], tuples[h], amap):
                        continue
                    if h.valency == 1:
                        u = slots[(p, amap.pairs[0][0])]
                        v = slots[(h, 1)]
                        if lin_similarity(u, v) > 0:
                            assert weeds_precision(u, v) == pytest.approx(1.0)


# Weights on which a plain left-to-right sum and a compensated one differ
# (ten 0.1s, say), next to arbitrary ones.
join_weights = st.one_of(st.sampled_from((0.1, 0.7, 1e-3, 3.0)), st.floats(0.01, 10.0))
JOIN_ENTITIES = ("e0", "e1", "e2", "e3", "e4")
JOIN_PAIRS = tuple((a, b) for a in JOIN_ENTITIES[:3] for b in JOIN_ENTITIES[:3])
JOIN_SIGNATURES = (("a", "a"), ("a", "b"), ("b", "b"))


@st.composite
def typed_vectors(draw):
    """Random pair and slot vectors over the types a and b.

    Each signature, (a, a), (a, b) and (b, b), has a binary, and each type
    a unary, so one draw builds all five subgraphs. Vectors may be empty
    or share no feature; a vector may copy an earlier one, or (a pair
    vector) reverse its argument pairs, so scores of 1 and swap edges
    occur; (a, b) binaries come in both slot orders; some binary slots
    have no vector.
    """
    slot_features = st.dictionaries(st.sampled_from(JOIN_ENTITIES), join_weights, max_size=5)
    orders = [*JOIN_SIGNATURES, *draw(st.lists(
        st.sampled_from(JOIN_SIGNATURES + (("b", "a"),)), max_size=5))]
    pair_vectors, slot_vectors, slot_pool = {}, {}, []
    for i, order in enumerate(orders):
        p = TypedPredicate(f"b{i}", 2, order)
        earlier = list(pair_vectors.values())
        source = draw(st.sampled_from(("new", "copy", "reverse"))) if earlier else "new"
        if source == "new":
            features = draw(st.dictionaries(st.sampled_from(JOIN_PAIRS), join_weights, max_size=6))
        else:
            features = dict(draw(st.sampled_from(earlier)))
            if source == "reverse":
                features = {(b, a): w for (a, b), w in features.items()}
        pair_vectors[p] = features
        for slot in (1, 2):
            if draw(st.booleans()):
                f = draw(slot_features)
                slot_pool.append(f)
                slot_vectors[(p, slot)] = f
    for i, t in enumerate(["a", "b", *draw(st.lists(st.sampled_from("ab"), max_size=5))]):
        f = (dict(draw(st.sampled_from(slot_pool)))
             if slot_pool and draw(st.booleans()) else draw(slot_features))
        slot_pool.append(f)
        slot_vectors[(TypedPredicate(f"u{i}", 1, (t,), ".1"), 1)] = f
    return pair_vectors, slot_vectors


def assert_same_subgraph(found: TypedSubgraph, expected: TypedSubgraph) -> None:
    assert found.signature == expected.signature
    assert found.vertices == expected.vertices
    for column in ("premise_ids", "hypothesis_ids", "codes", "scores"):
        assert getattr(found, column).tobytes() == getattr(expected, column).tobytes(), column


class TestSparseJoin:
    """The inverted-index join scores exactly the edges, bit for bit, that
    comparing every premise with every hypothesis does."""

    @settings(max_examples=300, deadline=None)
    @given(typed_vectors(), st.sampled_from((0.0, 0.01)))
    def test_matches_pairwise_builders(self, case, threshold):
        # built as build_local_graphs builds them: each type's unary side
        # serves two bivalent signatures and the type's univalent graph
        pair_vectors, slot_vectors = case
        graphs = _subgraphs(pair_vectors, slot_vectors, threshold)
        assert list(graphs) == [*JOIN_SIGNATURES, ("a",), ("b",)]
        unaries_by_type: dict[str, list[TypedPredicate]] = {}
        for p, _ in slot_vectors:
            if p.valency == 1:
                unaries_by_type.setdefault(p.slot_types[0], []).append(p)
        for signature in JOIN_SIGNATURES:
            assert_same_subgraph(graphs[signature], build_bivalent_pairwise(
                signature, pair_vectors, slot_vectors, unaries_by_type, threshold))
        for t, unaries in unaries_by_type.items():
            assert_same_subgraph(
                graphs[(t,)], build_univalent_pairwise(t, unaries, slot_vectors, threshold))

    def test_scores_add_left_to_right(self):
        # ten shared 0.1s: compensated sums would move the score's last bit
        shared = {f"f{i}": 0.1 for i in range(10)}
        u, v = pred("win.1", "person"), pred("lead.1", "person")
        slot_vectors = {(u, 1): {**shared, "g": 2.0}, (v, 1): dict(shared)}
        sub = _subgraphs({}, slot_vectors, 0.01)[("person",)]

        def score(total):
            wp = total([0.1] * 10) / total([0.1] * 10 + [2.0])
            lin = total([0.2] * 10) / (total([0.1] * 10 + [2.0]) + total([0.1] * 10))
            return math.sqrt(wp * lin)

        assert score(plain_sum) != score(math.fsum)
        assert sub.find_edges(u, v)[0].score == score(plain_sum)
        assert_same_subgraph(sub, build_univalent_pairwise("person", [u, v], slot_vectors))

    def test_disjoint_supports_score_no_edge(self):
        u, v = pred("win.1", "person"), pred("lead.1", "person")
        slot_vectors = {(u, 1): {"a": 1.0}, (v, 1): {"b": 1.0}}
        sub = _subgraphs({}, slot_vectors, 0.0)[("person",)]
        assert sub.vertices == (v, u) and sub.edges == []
