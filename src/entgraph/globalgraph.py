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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .graphio import _write_text_atomic
from .localgraph import TypedSubgraph, edge_key

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
class EdgeProvenance:
    local_score: float
    final_score: float


@dataclass
class GlobalGraph:
    """Globalized family: updated subgraphs plus per-edge provenance."""

    subgraphs: dict
    provenance: dict[tuple, EdgeProvenance]
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
    """Yield (weight, [variable ids]) cliques to tie together."""
    var_of: dict[tuple, int] = {}
    locals_: list[float] = []
    edge_at: list[tuple] = []  # (signature, edge)
    for sig in sorted(subgraphs):
        for e in subgraphs[sig].edges:
            var_of[(sig, edge_key(e))] = len(locals_)
            locals_.append(e.score)
            edge_at.append((sig, e))

    groups: list[tuple[float, list[int]]] = []
    if config.lambda_para > 0:
        for sig in sorted(subgraphs):
            sub = subgraphs[sig]
            out_by_pred: dict = {}
            for e in sub.edges:
                out_by_pred.setdefault(e.premise, {})[
                    (e.hypothesis, e.kind, e.arg_map)
                ] = var_of[(sig, edge_key(e))]
            for p, q in sorted(find_paraphrases(sub, config.paraphrase_tau)):
                p_out = out_by_pred.get(p, {})
                q_out = out_by_pred.get(q, {})
                for target, pv in sorted(p_out.items()):
                    qv = q_out.get(target)
                    if qv is not None:
                        groups.append((config.lambda_para, [pv, qv]))
    if config.lambda_cross > 0:
        across: dict[tuple, list[int]] = {}
        for (sig, ekey), vid in var_of.items():
            prem, hyp, kind, amap = ekey
            across.setdefault(
                (prem.untyped, hyp.untyped, kind, amap), []
            ).append(vid)
        for key in sorted(across, key=repr):
            vids = across[key]
            if len(vids) > 1:
                groups.append((config.lambda_cross, sorted(vids)))
    return var_of, np.array(locals_), edge_at, groups


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

    solution = local.astype(float).copy()
    coupled_groups: dict[int, list] = {}
    for g in groups:
        coupled_groups.setdefault(find(g[1][0]), []).append(g)

    for root, vids in members.items():
        gs = coupled_groups.get(root)
        if not gs or len(vids) == 1:
            continue
        index = {v: i for i, v in enumerate(vids)}
        m = len(vids)
        a = np.eye(m)
        b = local[vids].astype(float).copy()
        for weight, gvids in gs:
            # pairwise penalties within the clique
            for i in range(len(gvids)):
                for j in range(i + 1, len(gvids)):
                    x, y = index[gvids[i]], index[gvids[j]]
                    a[x, x] += weight
                    a[y, y] += weight
                    a[x, y] -= weight
                    a[y, x] -= weight
        solution[vids] = np.linalg.solve(a, b)
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
    _, local, edge_at, groups = _coupling_groups(subgraphs, config)
    solved = _solve_components(local, groups)
    # (I + lambda L)^-1 is row-stochastic and nonnegative, so every score
    # is a convex combination of local ones: only rounding may leave [0, 1]
    in_range = (solved >= -SCORE_TOLERANCE) & (solved <= 1 + SCORE_TOLERANCE)
    if not in_range.all():
        i = int(np.flatnonzero(~in_range)[0])
        sig, e = edge_at[i]
        raise ValueError(
            f"global score {float(solved[i])!r} of edge {e.premise.token()} -> "
            f"{e.hypothesis.token()} ({e.kind} {e.arg_map.format()}) in "
            f"{','.join(sig)} lies outside [0, 1]"
        )
    scores = np.clip(solved, 0.0, 1.0)

    by_sig: dict = {}
    provenance: dict[tuple, EdgeProvenance] = {}
    for vid, (sig, e) in enumerate(edge_at):
        by_sig.setdefault(sig, {})[edge_key(e)] = float(scores[vid])
        provenance[(sig, edge_key(e))] = EdgeProvenance(e.score, float(scores[vid]))
    out = {
        sig: subgraphs[sig].with_scores(by_sig.get(sig, {}))
        for sig in sorted(subgraphs)
    }
    return GlobalGraph(out, provenance)


def apply_to_all(
    bivalent: Mapping, univalent: Mapping, config: GlobalConfig = GlobalConfig()
) -> tuple[GlobalGraph, GlobalGraph]:
    """Globalize the bivalent family and the univalent family separately."""
    return globalize(bivalent, config), globalize(univalent, config)


def write_provenance(graph: GlobalGraph, path) -> None:
    lines = ["signature\tpremise\thypothesis\tkind\targ_map\tlocal_score\tfinal_score"]
    for (sig, ekey) in sorted(graph.provenance, key=repr):
        prem, hyp, kind, amap = ekey
        prov = graph.provenance[(sig, ekey)]
        lines.append(
            "\t".join(
                (
                    ",".join(sig), prem.token(), hyp.token(), kind,
                    amap.format(), repr(prov.local_score), repr(prov.final_score),
                )
            )
        )
    _write_text_atomic(path, "\n".join(lines) + "\n")
