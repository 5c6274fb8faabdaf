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
its edges in the order of the local one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .localgraph import TypedSubgraph

# how far rounding may carry a solved score outside [0, 1]
SCORE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GlobalConfig:
    lambda_para: float = 1.0
    lambda_cross: float = 0.5
    paraphrase_tau: float = 0.9

    def __post_init__(self) -> None:
        if self.lambda_para < 0 or self.lambda_cross < 0:
            raise ValueError("constraint weights must be >= 0")
        if not 0 < self.paraphrase_tau <= 1:
            raise ValueError("paraphrase_tau must be in (0, 1]")


@dataclass
class GlobalGraph:
    """Globalized family: the subgraphs with their refined scores."""

    subgraphs: dict
    # one exact solve minimizes the whole objective
    iterations_run: ClassVar[int] = 1


def find_paraphrases(subgraph: TypedSubgraph, tau: float):
    """Unordered same-valency predicate pairs entailing each other >= tau."""
    best: dict[tuple, float] = {}
    for e in subgraph.edges:
        k = (e.premise, e.hypothesis)
        if e.score > best.get(k, 0.0):
            best[k] = e.score
    pairs = set()
    for (p, q), s in best.items():
        if s < tau or p.valency != q.valency:
            continue
        back = best.get((q, p), 0.0)
        if back >= tau:
            pairs.add(tuple(sorted((p, q), key=lambda x: x.token())))
    return pairs


def _coupling_groups(subgraphs: Mapping, config: GlobalConfig):
    """Number the family's edges and list the (weight, [positions]) cliques.

    Edges are numbered by sorted signature, then in each subgraph's
    ``edges`` order; ``edge_at[i]`` is the (signature, index in ``edges``)
    of position i and ``local[i]`` its local score.
    """
    edge_at: list[tuple[tuple, int]] = []
    local: list[float] = []
    groups: list[tuple[float, list[int]]] = []
    across: dict[tuple, list[int]] = {}
    for sig in sorted(subgraphs):
        sub = subgraphs[sig]
        start = len(local)
        out_by_pred: dict = {}
        for i, e in enumerate(sub.edges):
            edge_at.append((sig, i))
            local.append(e.score)
            out_by_pred.setdefault(e.premise, {})[
                (e.hypothesis, e.kind, e.arg_map)
            ] = start + i
            across.setdefault(
                (e.premise.untyped, e.hypothesis.untyped, e.kind, e.arg_map), []
            ).append(start + i)
        if config.lambda_para > 0:
            for p, q in sorted(find_paraphrases(sub, config.paraphrase_tau)):
                q_out = out_by_pred.get(q, {})
                for target, pv in out_by_pred.get(p, {}).items():
                    qv = q_out.get(target)
                    if qv is not None:
                        groups.append((config.lambda_para, [pv, qv]))
    if config.lambda_cross > 0:
        # first-member order; members are ascending positions
        groups.extend(
            (config.lambda_cross, vids) for vids in across.values() if len(vids) > 1
        )
    return np.array(local), edge_at, groups


def _solve_components(local: np.ndarray, groups) -> np.ndarray:
    """Exact minimizer of the quadratic, component by component."""
    n = len(local)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for _, vids in groups:
        for v in vids[1:]:
            union(vids[0], v)

    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)

    solution = local.astype(float)
    coupled_groups: dict[int, list] = {}
    for g in groups:
        coupled_groups.setdefault(find(g[1][0]), []).append(g)

    for root, vids in members.items():
        gs = coupled_groups.get(root)
        if not gs or len(vids) == 1:
            continue
        index = {v: i for i, v in enumerate(vids)}
        a = np.eye(len(vids))
        for weight, gvids in gs:
            # the clique's Laplacian: pairwise penalties among its members
            k = len(gvids)
            at = [index[v] for v in gvids]
            a[np.ix_(at, at)] += weight * (k * np.eye(k) - np.ones((k, k)))
        solution[vids] = np.linalg.solve(a, local[vids])
    return solution


def objective(scores: np.ndarray, local: np.ndarray, groups) -> float:
    value = float(np.sum((scores - local) ** 2))
    for weight, vids in groups:
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                value += weight * float(scores[vids[i]] - scores[vids[j]]) ** 2
    return value


def globalize(subgraphs: Mapping, config: GlobalConfig = GlobalConfig()) -> GlobalGraph:
    """Refine one family of subgraphs; valency-agnostic over edge lists."""
    local, edge_at, groups = _coupling_groups(subgraphs, config)
    solved = _solve_components(local, groups)
    # (I + lambda L)^-1 is row-stochastic and nonnegative, so every score
    # is a convex combination of local ones: only rounding may leave [0, 1]
    in_range = (solved >= -SCORE_TOLERANCE) & (solved <= 1 + SCORE_TOLERANCE)
    if not in_range.all():
        i = int(np.flatnonzero(~in_range)[0])
        sig, j = edge_at[i]
        e = subgraphs[sig].edges[j]
        raise ValueError(
            f"global score {float(solved[i])!r} of edge {e.premise.token()} -> "
            f"{e.hypothesis.token()} ({e.kind} {e.arg_map.format()}) in "
            f"{','.join(sig)} lies outside [0, 1]"
        )
    scores = np.clip(solved, 0.0, 1.0).tolist()
    out, start = {}, 0
    for sig in sorted(subgraphs):
        end = start + len(subgraphs[sig].edges)
        out[sig] = subgraphs[sig].with_scores(scores[start:end])
        start = end
    return GlobalGraph(out)


def apply_to_all(
    bivalent: Mapping, univalent: Mapping, config: GlobalConfig = GlobalConfig()
) -> tuple[GlobalGraph, GlobalGraph]:
    """Globalize the bivalent family and the univalent family separately."""
    return globalize(bivalent, config), globalize(univalent, config)
