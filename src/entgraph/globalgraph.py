"""Global score refinement with quadratic soft constraints.

Local edge scores are noisy and sparse. This stage re-estimates them by
minimizing, over a family of typed subgraphs,

    sum_e (W_e - L_e)^2
      + lambda_para  * sum_{paraphrase (p,q)} sum_r (W(p->r) - W(q->r))^2
      + lambda_cross * sum_{matching edges across graphs} (W_g - W_g')^2

where L are the local scores, paraphrase pairs are predicates of one
subgraph that entail each other above a mutual-score threshold, and the
cross term ties together edges with the same untyped predicates, map and
kind under different type signatures. The objective is a strictly convex
quadratic whose coupling components are independent, so one exact solve
per component gives the global minimizer; there is nothing to iterate.
Structure is never touched: directions, kinds and argument maps survive,
only scores move, and they stay within [0, 1]: a solved score further
than SCORE_TOLERANCE outside it is an error, not something to clip.
Because the edges stay put, each is numbered once, by sorted signature and
then in its subgraph's ``edges`` order; local scores, cliques and the
solution are indexed by that position, and each refined subgraph keeps
its edges in the order of the local one, sharing every column but the
scores with it.

Cliques are found from the subgraphs' integer columns: paraphrase pairs
by vertex id, and cross-graph twins by one stable sort over integer keys
made of the untyped-name ids of both endpoints and the edge code. Each
component is solved exactly in plain Python, every float operation in a
fixed order, so the global graphs are the same bits on every interpreter
and machine. A component that is one clique of k edges tied with weight
w has a closed form, because (I + w (k I - J))^-1 = (I + w J) / (1 + w k);
any other is solved by Gaussian elimination on I + sum_g w_g L_g, which
is strictly diagonally dominant, so it needs no pivoting.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import groupby
from typing import Mapping

from .localgraph import EDGE_CODES, TypedSubgraph, _left_sum

# how far rounding may carry a solved score outside [0, 1]
SCORE_TOLERANCE = 1e-12


class GlobalConfig(namedtuple("GlobalConfig", "lambda_para lambda_cross paraphrase_tau")):
    __slots__ = ()

    def __new__(
        cls, lambda_para: float = 1.0, lambda_cross: float = 0.5, paraphrase_tau: float = 0.9
    ):
        if lambda_para < 0 or lambda_cross < 0:
            raise ValueError("constraint weights must be >= 0")
        if not 0 < paraphrase_tau <= 1:
            raise ValueError("paraphrase_tau must be in (0, 1]")
        return tuple.__new__(cls, (lambda_para, lambda_cross, paraphrase_tau))


class GlobalGraph:
    """Globalized family: the subgraphs with their refined scores."""

    # one exact solve minimizes the whole objective
    iterations_run = 1

    def __init__(self, subgraphs: dict):
        self.subgraphs = subgraphs


def _paraphrase_ids(sub: TypedSubgraph, tau: float) -> list[tuple[int, int]]:
    """Same-valency vertex pairs entailing each other at >= tau, as id
    pairs in token order, listed in the order of their predicate pairs."""
    premise, hypothesis, scores = sub.premise_ids, sub.hypothesis_ids, sub.scores
    strong = set()
    i, n = 0, len(scores)
    while i < n:
        # the edges of one (premise, hypothesis) pair are adjacent
        p, q, best = premise[i], hypothesis[i], scores[i]
        i += 1
        while i < n and premise[i] == p and hypothesis[i] == q:
            best = max(best, scores[i])
            i += 1
        if best >= tau and sub.vertices[p].valency == sub.vertices[q].valency:
            strong.add((p, q))
    pairs = [(p, q) for p, q in strong if p < q and (q, p) in strong]
    pairs.sort(key=lambda pq: (sub.vertices[pq[0]], sub.vertices[pq[1]]))
    return pairs


def _coupling_groups(subgraphs: Mapping, config: GlobalConfig):
    """Number the family's edges and list the (weight, [positions]) cliques.

    Edges are numbered by sorted signature, then in each subgraph's
    ``edges`` order; ``local[i]`` is the local score of position i.
    Paraphrase cliques come first, by signature, then cross cliques in the
    order of their first member; members are ascending positions.
    Cross-graph twins are found from integer keys: untyped-name ids of
    both endpoints and the edge code.
    """
    signatures = sorted(subgraphs)
    local, starts = array("d"), [0]
    for sig in signatures:
        local.extend(subgraphs[sig].scores)
        starts.append(len(local))
    groups: list[tuple[float, list[int]]] = []
    if config.lambda_para > 0:
        for sig, start in zip(signatures, starts):
            sub = subgraphs[sig]
            for p, q in _paraphrase_ids(sub, config.paraphrase_tau):
                q_out = {
                    (sub.hypothesis_ids[j], sub.codes[j]): j for j in sub.out_positions(q)
                }
                for i in sub.out_positions(p):
                    j = q_out.get((sub.hypothesis_ids[i], sub.codes[i]))
                    if j is not None:
                        groups.append((config.lambda_para, [start + i, start + j]))
    if config.lambda_cross > 0:
        names: dict[tuple[str, int], int] = {}
        name_ids = [
            [names.setdefault(v.untyped, len(names)) for v in subgraphs[sig].vertices]
            for sig in signatures
        ]
        keys: list[int] = []
        for name_id, sig in zip(name_ids, signatures):
            sub = subgraphs[sig]
            keys.extend(
                (name_id[p] * len(names) + name_id[h]) * len(EDGE_CODES) + code
                for p, h, code in zip(sub.premise_ids, sub.hypothesis_ids, sub.codes)
            )
        # a stable sort keeps each clique's members ascending
        runs = (list(run) for _, run in groupby(
            sorted(range(len(keys)), key=keys.__getitem__), keys.__getitem__))
        cliques = [members for members in runs if len(members) > 1]
        cliques.sort(key=lambda members: members[0])
        groups.extend((config.lambda_cross, members) for members in cliques)
    return local, groups


def _solve_components(local: array, groups) -> array:
    """Exact minimizer of the quadratic, component by component: the
    closed form for a component of one clique, elimination otherwise."""
    parent = array("i", range(len(local)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, vids in groups:
        root = find(vids[0])
        for v in vids[1:]:
            parent[find(v)] = root
    components: dict[int, list] = {}
    for g in groups:
        components.setdefault(find(g[1][0]), []).append(g)

    solution = array("d", local)
    for cliques in components.values():
        if len(cliques) == 1:
            ((weight, vids),) = cliques
            b = [local[v] for v in vids]
            total, scale = weight * _left_sum(b), 1.0 + weight * len(vids)
            for v, bv in zip(vids, b):
                solution[v] = (bv + total) / scale
            continue
        vids = sorted({v for _, gvids in cliques for v in gvids})
        index = {v: i for i, v in enumerate(vids)}
        # I plus each clique's Laplacian, entry by entry in clique order
        a = [[float(i == j) for j in range(len(vids))] for i in range(len(vids))]
        for weight, gvids in cliques:
            diagonal = weight * (len(gvids) - 1.0)
            at = [index[v] for v in gvids]
            for i in at:
                for j in at:
                    a[i][j] += diagonal if i == j else -weight
        for v, x in zip(vids, _eliminate(a, [local[v] for v in vids])):
            solution[v] = x
    return solution


def _eliminate(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve ``a x = b`` by Gaussian elimination without pivoting, stable
    for a diagonally dominant ``a``; overwrites both and returns ``b``."""
    k = len(b)
    for c in range(k):
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            for j in range(c + 1, k):
                a[r][j] -= f * a[c][j]
            b[r] -= f * b[c]
    for r in reversed(range(k)):
        s = b[r]
        for j in range(r + 1, k):
            s -= a[r][j] * b[j]
        b[r] = s / a[r][r]
    return b


def globalize(subgraphs: Mapping, config: GlobalConfig = GlobalConfig()) -> GlobalGraph:
    """Refine subgraphs of one family or both; valency-agnostic over edge lists."""
    local, groups = _coupling_groups(subgraphs, config)
    solved = _solve_components(local, groups)
    out, start = {}, 0
    for sig in sorted(subgraphs):
        sub = subgraphs[sig]
        scores = solved[start:start + len(sub.scores)]
        start += len(scores)
        # (I + lambda L)^-1 is row-stochastic and nonnegative, so every score
        # is a convex combination of local ones: only rounding may leave [0, 1]
        for j, score in enumerate(scores):
            if not -SCORE_TOLERANCE <= score <= 1 + SCORE_TOLERANCE:
                e = sub.edge(j)
                raise ValueError(
                    f"global score {score!r} of edge {e.premise.token()} -> "
                    f"{e.hypothesis.token()} ({e.kind} {e.arg_map.format()}) in "
                    f"{','.join(sig)} lies outside [0, 1]"
                )
        out[sig] = sub.with_scores([min(max(score, 0.0), 1.0) for score in scores])
    return GlobalGraph(out)


def apply_to_all(
    bivalent: Mapping, univalent: Mapping, config: GlobalConfig = GlobalConfig()
) -> tuple[GlobalGraph, GlobalGraph]:
    """Globalize the bivalent family and the univalent family separately, as
    ``globalize`` of both at once does, since no clique crosses them: UU
    codes live only in univalent graphs, and paraphrases within one
    subgraph. ``cli globalize`` solves the families this way, so that the
    cliques of only one family are held at a time."""
    return globalize(bivalent, config), globalize(univalent, config)
