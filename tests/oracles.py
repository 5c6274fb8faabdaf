"""Reference implementations the tests check the package against.

No pipeline stage runs these: each restates a definition from the paper
directly, so that tests can compare the package's fast paths with it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from entgraph.localgraph import ArgMap
from entgraph.qaeval import AnswerRecord


def inclusion_oracle(
    premise_tuples: Iterable[Sequence],
    hypothesis_tuples: Iterable[Sequence],
    arg_map: ArgMap,
) -> bool:
    """Exact subtuple-inclusion test between two argument-tuple sets.

    True iff for every premise tuple, the hypothesis set contains a tuple
    that agrees with it on every mapped slot. Tuple arities must match the
    map's premise and hypothesis sides.
    """
    premise_tuples = [tuple(t) for t in premise_tuples]
    hypothesis_set = set(map(tuple, hypothesis_tuples))
    j = len(arg_map.pairs)
    for t in hypothesis_set:
        if len(t) != j:
            raise ValueError(f"hypothesis tuple arity {len(t)} != map arity {j}")
    max_slot = max(p for p, _ in arg_map.pairs)
    arities = {len(t) for t in premise_tuples}
    if len(arities) > 1 or (arities and min(arities) < max_slot):
        raise ValueError(f"premise tuple arities {arities} invalid for map {arg_map.pairs}")
    selected = set()
    for t in premise_tuples:
        image = [None] * j
        for p_slot, h_slot in arg_map.pairs:
            image[h_slot - 1] = t[p_slot - 1]
        selected.add(tuple(image))
    return selected <= hypothesis_set


def objective(scores: Sequence[float], local: Sequence[float], groups) -> float:
    """The globalization quadratic at ``scores``: squared distance to the
    local scores plus each clique's weighted pairwise squared differences."""
    value = sum((s - x) ** 2 for s, x in zip(scores, local))
    for weight, vids in groups:
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                value += weight * (scores[vids[i]] - scores[vids[j]]) ** 2
    return value


def edge_positions(family: Mapping) -> list[tuple[tuple, int]]:
    """The (signature, index in its ``edges``) of each position that
    globalization numbers a family's edges by: sorted signature, then
    each subgraph's edge order."""
    return [(sig, i) for sig in sorted(family) for i in range(len(family[sig].scores))]


def combine_components(records: Sequence[AnswerRecord]) -> AnswerRecord:
    """Overall prediction: the max over component confidences, so the
    combined model predicts true whenever any component does."""
    if not records:
        raise ValueError("no component records")
    best = max(records, key=lambda r: r.confidence)
    return AnswerRecord(
        best.question_id, "combined", best.confidence,
        best.best_evidence, best.backed_off,
    )
