"""Soft-constraint globalization tests.

Expected values are the closed-form minimizers of the quadratic: for two
coupled scores with anchors (a, b) and weight w, the solution is
mean +/- (a - b)/(2 (1 + 2w)) around the midpoint.
"""

import pytest

from entgraph.globalgraph import (
    GlobalConfig,
    _paraphrase_ids,
    apply_to_all,
    globalize,
)
from entgraph.localgraph import (
    BB,
    BU,
    UU,
    ArgMap,
    EntailmentEdge,
    TypedSubgraph,
)

from conftest import pred
from oracles import edge_positions, objective

ID1 = ArgMap.identity(1)
ID2 = ArgMap.identity(2)

WIN = pred("be.winner.1", "person")
CHAMP = pred("be.champion.1", "person")
HAPPY = pred("be.happy.1", "person")


def uu(p, q, score):
    return EntailmentEdge(p, q, UU, ID1, score)


def edge_key(e):
    """Identity of an edge irrespective of its score."""
    return (e.premise, e.hypothesis, e.kind, e.arg_map)


def find_paraphrases(sub, tau):
    """The mutual pairs ``_paraphrase_ids`` finds, as predicate pairs."""
    return {(sub.vertices[p], sub.vertices[q]) for p, q in _paraphrase_ids(sub, tau)}


def toy_paraphrase_graph():
    """Mutual 0.95 pair with out-edges 0.4 and 0.8 to a shared target."""
    edges = [
        uu(WIN, CHAMP, 0.95),
        uu(CHAMP, WIN, 0.95),
        uu(WIN, HAPPY, 0.4),
        uu(CHAMP, HAPPY, 0.8),
    ]
    return {("person",): TypedSubgraph(("person",), {WIN, CHAMP, HAPPY}, edges)}


class TestFindParaphrases:
    def test_mutual_above_tau(self):
        sub = toy_paraphrase_graph()[("person",)]
        assert find_paraphrases(sub, 0.9) == {(CHAMP, WIN)}

    def test_one_directional_not_a_pair(self):
        sub = TypedSubgraph(("person",), {WIN, CHAMP}, [uu(WIN, CHAMP, 0.99)])
        assert find_paraphrases(sub, 0.9) == set()

    def test_both_directions_must_clear_tau(self):
        sub = TypedSubgraph(
            ("person",), {WIN, CHAMP},
            [uu(WIN, CHAMP, 0.5), uu(CHAMP, WIN, 0.95)],
        )
        assert find_paraphrases(sub, 0.6) == set()
        assert find_paraphrases(sub, 0.5) == {(CHAMP, WIN)}


class TestGlobalizeIdentity:
    def test_zero_lambdas_identity(self):
        config = GlobalConfig(lambda_para=0.0, lambda_cross=0.0)
        result = globalize(toy_paraphrase_graph(), config)
        sub = result.subgraphs[("person",)]
        for e in sub.edges:
            local = next(
                x.score for x in toy_paraphrase_graph()[("person",)].edges
                if edge_key(x) == edge_key(e)
            )
            assert e.score == pytest.approx(local, abs=1e-9)
        assert result.iterations_run == 1

    def test_no_couplings_fixed_point_immediately(self):
        sub = TypedSubgraph(("person",), {WIN, CHAMP}, [uu(WIN, CHAMP, 0.3)])
        result = globalize({("person",): sub}, GlobalConfig(lambda_cross=0.0))
        assert result.iterations_run == 1
        assert result.subgraphs[("person",)].edges[0].score == pytest.approx(0.3)


class TestParaphraseConstraint:
    def test_large_lambda_converges_to_mean(self):
        config = GlobalConfig(lambda_para=1e4, lambda_cross=0.0)
        result = globalize(toy_paraphrase_graph(), config)
        sub = result.subgraphs[("person",)]
        for p in (WIN, CHAMP):
            (edge,) = sub.find_edges(p, HAPPY)
            assert edge.score == pytest.approx(0.6, abs=1e-3)
        assert result.iterations_run == 1

    def test_moderate_lambda_closed_form(self):
        lam = 2.0
        config = GlobalConfig(lambda_para=lam, lambda_cross=0.0)
        result = globalize(toy_paraphrase_graph(), config)
        sub = result.subgraphs[("person",)]
        # anchors 0.4 / 0.8: w = 0.6 -/+ 0.2/(1+2*lam)
        (low,) = sub.find_edges(WIN, HAPPY)
        (high,) = sub.find_edges(CHAMP, HAPPY)
        assert low.score == pytest.approx(0.6 - 0.2 / (1 + 2 * lam), abs=1e-12)
        assert high.score == pytest.approx(0.6 + 0.2 / (1 + 2 * lam), abs=1e-12)

    def test_mutual_edges_themselves_unchanged(self):
        config = GlobalConfig(lambda_para=100.0, lambda_cross=0.0)
        result = globalize(toy_paraphrase_graph(), config)
        sub = result.subgraphs[("person",)]
        assert sub.find_edges(WIN, CHAMP)[0].score == pytest.approx(0.95)
        assert sub.find_edges(CHAMP, WIN)[0].score == pytest.approx(0.95)


class TestCrossGraphConstraint:
    def _two_graphs(self):
        beat_pp = pred("beat", "person", "person")
        win_pp = pred("win.against", "person", "person")
        beat_oo = pred("beat", "organization", "organization")
        win_oo = pred("win.against", "organization", "organization")
        g1 = TypedSubgraph(
            ("person", "person"), {beat_pp, win_pp},
            [EntailmentEdge(beat_pp, win_pp, BB, ID2, 0.3)],
        )
        g2 = TypedSubgraph(
            ("organization", "organization"), {beat_oo, win_oo},
            [EntailmentEdge(beat_oo, win_oo, BB, ID2, 0.7)],
        )
        return {g1.signature: g1, g2.signature: g2}

    def test_cross_pull_closed_form(self):
        lam = 0.5
        config = GlobalConfig(lambda_para=0.0, lambda_cross=lam)
        result = globalize(self._two_graphs(), config)
        scores = sorted(
            e.score
            for sub in result.subgraphs.values()
            for e in sub.edges
        )
        # anchors 0.3 / 0.7 -> 0.5 -/+ 0.4 / (2 (1 + 2*0.5)) = 0.4, 0.6
        assert scores[0] == pytest.approx(0.4, abs=1e-12)
        assert scores[1] == pytest.approx(0.6, abs=1e-12)

    def test_different_maps_not_tied(self):
        beat_pp = pred("beat", "person", "person")
        win_pp = pred("win.against", "person", "person")
        beat_oo = pred("beat", "organization", "organization")
        win_oo = pred("win.against", "organization", "organization")
        g1 = TypedSubgraph(
            ("person", "person"), {beat_pp, win_pp},
            [EntailmentEdge(beat_pp, win_pp, BB, ID2, 0.3)],
        )
        g2 = TypedSubgraph(
            ("organization", "organization"), {beat_oo, win_oo},
            [EntailmentEdge(beat_oo, win_oo, BB, ArgMap.swap(), 0.7)],
        )
        result = globalize(
            {g1.signature: g1, g2.signature: g2},
            GlobalConfig(lambda_para=0.0, lambda_cross=5.0),
        )
        scores = sorted(
            e.score for sub in result.subgraphs.values() for e in sub.edges
        )
        assert scores == [pytest.approx(0.3), pytest.approx(0.7)]


class TestJointBivalentOptimization:
    def test_bb_and_bu_edges_optimized_together(self):
        # paraphrase binaries share a BU target: their BU scores are tied
        crush = pred("crush", "person", "person")
        rout = pred("rout", "person", "person")
        winner = pred("be.winner.1", "person")
        edges = [
            EntailmentEdge(crush, rout, BB, ID2, 0.95),
            EntailmentEdge(rout, crush, BB, ID2, 0.95),
            EntailmentEdge(crush, winner, BU, ArgMap.from_slot(1), 0.2),
            EntailmentEdge(rout, winner, BU, ArgMap.from_slot(1), 0.9),
        ]
        sub = TypedSubgraph(("person", "person"), {crush, rout, winner}, edges)
        config = GlobalConfig(lambda_para=1e4, lambda_cross=0.0)
        result = globalize({sub.signature: sub}, config)
        out = result.subgraphs[sub.signature]
        assert out.find_edges(crush, winner)[0].score == pytest.approx(0.55, abs=1e-3)
        assert out.find_edges(rout, winner)[0].score == pytest.approx(0.55, abs=1e-3)


class TestGlobalizeInvariants:
    def test_structure_never_changes(self):
        result = globalize(toy_paraphrase_graph(), GlobalConfig())
        original = toy_paraphrase_graph()[("person",)]
        out = result.subgraphs[("person",)]
        assert [edge_key(e) for e in out.edges] == [edge_key(e) for e in original.edges]
        assert out.vertices == original.vertices

    def test_scores_stay_in_unit_interval(self):
        result = globalize(toy_paraphrase_graph(), GlobalConfig(lambda_para=50.0))
        for sub in result.subgraphs.values():
            for e in sub.edges:
                assert 0.0 <= e.score <= 1.0

    def test_objective_not_increased(self):
        subs = toy_paraphrase_graph()
        config = GlobalConfig(lambda_para=3.0, lambda_cross=0.0)
        from entgraph.globalgraph import _coupling_groups

        local, groups = _coupling_groups(subs, config)
        result = globalize(subs, config)
        final = [result.subgraphs[sig].edges[i].score for sig, i in edge_positions(subs)]
        assert objective(final, local, groups) <= objective(local, local, groups) + 1e-12


class TestScoreRangeCheck:
    """Solved scores are convex combinations; only rounding may leave [0, 1]."""

    def _solve_to(self, monkeypatch, value):
        from entgraph import globalgraph

        monkeypatch.setattr(
            globalgraph, "_solve_components", lambda local, groups: [value] * len(local),
        )

    def test_out_of_range_score_names_edge(self, monkeypatch):
        self._solve_to(monkeypatch, 1.5)
        with pytest.raises(
            ValueError,
            match=r"1\.5 of edge be\.champion\.1#person -> be\.happy\.1#person",
        ):
            globalize(toy_paraphrase_graph())

    def test_nan_score_rejected(self, monkeypatch):
        self._solve_to(monkeypatch, float("nan"))
        with pytest.raises(ValueError, match="outside"):
            globalize(toy_paraphrase_graph())

    def test_rounding_excess_clamped(self, monkeypatch):
        self._solve_to(monkeypatch, 1 + 1e-15)
        result = globalize(toy_paraphrase_graph())
        for e in result.subgraphs[("person",)].edges:
            assert e.score == 1.0


class TestApplyToAll:
    def test_empty_univalent_family(self):
        bi = {
            ("person", "person"): TypedSubgraph(
                ("person", "person"),
                {pred("beat", "person", "person"), pred("edge.out", "person", "person")},
                [
                    EntailmentEdge(
                        pred("beat", "person", "person"),
                        pred("edge.out", "person", "person"),
                        BB, ID2, 0.5,
                    )
                ],
            )
        }
        bi_out, uni_out = apply_to_all(bi, {}, GlobalConfig())
        assert uni_out.subgraphs == {}
        assert bi_out.subgraphs[("person", "person")].edges[0].score == pytest.approx(0.5)

    def test_disjoint_families_equal_independent_runs(self):
        bi = {
            ("person", "person"): TypedSubgraph(
                ("person", "person"),
                {pred("beat", "person", "person"), pred("top", "person", "person")},
                [
                    EntailmentEdge(
                        pred("beat", "person", "person"),
                        pred("top", "person", "person"),
                        BB, ID2, 0.42,
                    )
                ],
            )
        }
        uni = toy_paraphrase_graph()
        config = GlobalConfig(lambda_para=2.0, lambda_cross=0.5)
        bi_out, uni_out = apply_to_all(bi, uni, config)
        bi_alone = globalize(bi, config)
        uni_alone = globalize(uni, config)
        assert {
            edge_key(e): e.score
            for sub in bi_out.subgraphs.values() for e in sub.edges
        } == {
            edge_key(e): e.score
            for sub in bi_alone.subgraphs.values() for e in sub.edges
        }
        assert {
            edge_key(e): e.score
            for sub in uni_out.subgraphs.values() for e in sub.edges
        } == {
            edge_key(e): e.score
            for sub in uni_alone.subgraphs.values() for e in sub.edges
        }


class TestConfigValidation:
    def test_bad_weights(self):
        with pytest.raises(ValueError):
            GlobalConfig(lambda_para=-1.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            GlobalConfig(paraphrase_tau=0.0)


class TestExactSolveOracle:
    """globalize against one dense solve of the whole objective.

    Setting the gradient of the quadratic to zero gives the normal
    equations (I + sum_g lambda_g L_g) w = l, where L_g is the Laplacian of
    the clique that group g ties together.
    """

    NAMES = ("beat", "top", "win.against", "edge.out", "crush")
    TYPES = ("person", "organization", "location")

    def _random_family(self, rng, bivalent):
        family = {}
        names = rng.sample(self.NAMES, rng.randint(3, len(self.NAMES)))
        for t in rng.sample(self.TYPES, rng.randint(2, len(self.TYPES))):
            sig = (t, t) if bivalent else (t,)
            preds = [pred(n, *sig) for n in names]
            edges = []
            for p in preds:
                for q in preds:
                    if p == q or rng.random() < 0.3:
                        continue
                    # near-1 scores both ways make paraphrase pairs
                    score = rng.uniform(0.9, 1.0) if rng.random() < 0.4 else rng.uniform(0.01, 1.0)
                    if bivalent:
                        edges.append(EntailmentEdge(p, q, BB, rng.choice((ID2, ArgMap.swap())), score))
                    else:
                        edges.append(uu(p, q, score))
            family[sig] = TypedSubgraph(sig, set(preds), edges)
        return family

    def test_matches_dense_normal_equations(self):
        import random

        import numpy as np

        from entgraph.globalgraph import _coupling_groups

        rng = random.Random(2018)
        tied = {"para": 0, "cross": 0}
        for trial in range(60):
            family = self._random_family(rng, bivalent=trial % 2 == 0)
            config = GlobalConfig(
                lambda_para=rng.uniform(0.1, 5.0),
                lambda_cross=rng.uniform(5.5, 10.0),
            )
            local, groups = _coupling_groups(family, config)
            a = np.eye(len(local))
            for weight, vids in groups:
                k = len(vids)
                a[np.ix_(vids, vids)] += weight * (k * np.eye(k) - np.ones((k, k)))
                tied["para" if weight == config.lambda_para else "cross"] += 1
            expected = np.linalg.solve(a, local)

            result = globalize(family, config)
            got = np.array([
                result.subgraphs[sig].edges[i].score for sig, i in edge_positions(family)
            ])
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
            assert result.iterations_run == 1
        assert tied["para"] > 0 and tied["cross"] > 0


def predicate_coupling_groups(subgraphs, config):
    """The cliques as found from edge objects, keyed by predicates: the
    reference for the integer-keyed ``_coupling_groups``."""
    import numpy as np

    edge_at, local, groups, across = [], [], [], {}
    for sig in sorted(subgraphs):
        sub = subgraphs[sig]
        start = len(local)
        out_by_pred = {}
        for i, e in enumerate(sub.edges):
            edge_at.append((sig, i))
            local.append(e.score)
            out_by_pred.setdefault(e.premise, {})[(e.hypothesis, e.kind, e.arg_map)] = start + i
            across.setdefault(
                (e.premise.untyped, e.hypothesis.untyped, e.kind, e.arg_map), []
            ).append(start + i)
        if config.lambda_para > 0:
            for p, q in sorted(find_paraphrases(sub, config.paraphrase_tau)):
                q_out = out_by_pred.get(q, {})
                for target, pv in out_by_pred.get(p, {}).items():
                    if target in q_out:
                        groups.append((config.lambda_para, [pv, q_out[target]]))
    if config.lambda_cross > 0:
        groups.extend((config.lambda_cross, v) for v in across.values() if len(v) > 1)
    return np.array(local), edge_at, groups


def per_component_solve(local, groups):
    """One ``np.linalg.solve`` per coupled component, its matrix built by
    ``np.ix_`` updates: the reference for the per-component solve."""
    import numpy as np

    local = np.array(local)
    parent = list(range(len(local)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for _, vids in groups:
        for v in vids[1:]:
            ra, rb = find(vids[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    members, by_root = {}, {}
    for v in range(len(local)):
        members.setdefault(find(v), []).append(v)
    for g in groups:
        by_root.setdefault(find(g[1][0]), []).append(g)
    solution = local.astype(float)
    for root, vids in members.items():
        if root not in by_root:
            continue
        index = {v: i for i, v in enumerate(vids)}
        a = np.eye(len(vids))
        for weight, gvids in by_root[root]:
            k = len(gvids)
            at = [index[v] for v in gvids]
            a[np.ix_(at, at)] += weight * (k * np.eye(k) - np.ones((k, k)))
        solution[vids] = np.linalg.solve(a, local[vids])
    return solution


class TestColumnarCouplingOracle:
    """Integer-keyed cliques against the edge-object reference, exactly:
    same cliques in the same order; the solve within 1e-12 relative of
    one ``np.linalg.solve`` per component."""

    NAMES = ("beat", "top", "win.against", "edge.out", "crush")
    UNARIES = ("win.1", "lose.1", "be.winner.1")
    TYPES = ("person", "organization", "location")

    def _random_family(self, rng, bivalent):
        family = {}
        for t in rng.sample(self.TYPES, rng.randint(2, len(self.TYPES))):
            sig = (t, t) if bivalent else (t,)
            names = self.NAMES if bivalent else self.UNARIES + self.NAMES
            preds = [pred(n, *sig) for n in names]
            unaries = [pred(n, t) for n in self.UNARIES] if bivalent else []
            edges = []
            for p in preds:
                for q in preds:
                    if p == q or rng.random() < 0.4:
                        continue
                    # near-1 scores both ways make paraphrase pairs
                    score = rng.uniform(0.9, 1.0) if rng.random() < 0.4 else rng.uniform(0.01, 1.0)
                    if bivalent:
                        for m in rng.sample((ID2, ArgMap.swap()), rng.randint(1, 2)):
                            edges.append(EntailmentEdge(p, q, BB, m, score))
                    else:
                        edges.append(uu(p, q, score))
                for u in unaries:
                    for slot in (1, 2):
                        if rng.random() < 0.5:
                            edges.append(EntailmentEdge(
                                p, u, BU, ArgMap.from_slot(slot), rng.uniform(0.01, 1.0)))
            family[sig] = TypedSubgraph(sig, preds + unaries, edges)
        return family

    def test_cliques_and_solution_match_references(self):
        import random

        import numpy as np

        from entgraph.globalgraph import _coupling_groups, _solve_components

        rng = random.Random(2011)
        sizes = set()
        for trial in range(40):
            family = self._random_family(rng, bivalent=trial % 2 == 0)
            config = GlobalConfig(
                lambda_para=rng.choice((0.0, rng.uniform(0.1, 5.0))),
                lambda_cross=rng.choice((0.0, rng.uniform(0.1, 5.0))),
                paraphrase_tau=rng.uniform(0.85, 0.99),
            )
            local, groups = _coupling_groups(family, config)
            ref_local, ref_edge_at, ref_groups = predicate_coupling_groups(family, config)
            assert local.tobytes() == ref_local.tobytes()
            assert edge_positions(family) == ref_edge_at
            assert groups == ref_groups
            np.testing.assert_allclose(
                _solve_components(local, groups), per_component_solve(local, groups),
                rtol=1e-12, atol=0.0,
            )
            sizes.update(len(vids) for _, vids in groups)
        assert {2, 3} <= sizes


class TestClosedFormOracle:
    """A component of one clique takes the closed form
    x_i = (b_i + w sum(b)) / (1 + w k); elimination on its matrix
    I + w (k I - J) is the reference."""

    def test_closed_form_matches_elimination(self):
        import random
        from array import array

        from entgraph.globalgraph import _eliminate, _solve_components

        rng = random.Random(2021)
        for _ in range(500):
            k = rng.randint(2, 12)
            weight = rng.uniform(0.01, 10.0)
            local = array("d", (rng.random() for _ in range(k + 3)))
            vids = sorted(rng.sample(range(len(local)), k))
            solved = _solve_components(local, [(weight, vids)])
            a = [[1.0 + weight * (k - 1) if i == j else -weight for j in range(k)]
                 for i in range(k)]
            expected = _eliminate(a, [local[v] for v in vids])
            for v, x in zip(vids, expected):
                assert solved[v] == pytest.approx(x, rel=1e-12, abs=0.0)
            untouched = set(range(len(local))) - set(vids)
            assert all(solved[v] == local[v] for v in untouched)
