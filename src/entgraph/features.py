"""Sparse count statistics and PMI-weighted feature vectors.

Binary predicates get an argument-pair vector; every predicate slot
(the single unary slot, both binary slots) gets a per-slot entity vector.
Weights are positive PMI under maximum-likelihood probabilities; zero and
negative weights are dropped so feature support means genuine association.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .model import Corpus, TypedPredicate

PAIR = "pair"
SLOT = "slot"


class CountStore:
    """Joint and marginal occurrence counts for one counting mode.

    pair mode:  key = binary predicate,     feature = ordered entity-key pair
    slot mode:  key = (predicate, slot),    feature = entity key
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.joint: Counter = Counter()
        self.pred_marginal: Counter = Counter()
        self.feat_marginal: Counter = Counter()
        self.total = 0

    def add(self, pred_key, feat_key, n: int = 1) -> None:
        self.joint[(pred_key, feat_key)] += n
        self.pred_marginal[pred_key] += n
        self.feat_marginal[feat_key] += n
        self.total += n


def count(corpus: Corpus, mode: str) -> CountStore:
    """Accumulate occurrence counts over a corpus in pair or slot mode."""
    if mode not in (PAIR, SLOT):
        raise ValueError(f"mode must be {PAIR!r} or {SLOT!r}")
    store = CountStore(mode)
    for prop in corpus:
        if mode == PAIR:
            if prop.predicate.valency == 2:
                store.add(prop.predicate, (prop.args[0].key, prop.args[1].key))
        else:
            for slot, arg in enumerate(prop.args, start=1):
                store.add((prop.predicate, slot), arg.key)
    return store


def pmi(store: CountStore, pred_key, feat_key) -> float:
    """Positive pointwise mutual information of a (predicate, feature) event.

    max(0, ln( p(pred, feat) / (p(pred) p(feat)) )) with maximum-likelihood
    probabilities; unseen combinations score 0 by definition.
    """
    joint = store.joint.get((pred_key, feat_key), 0)
    if joint == 0:
        return 0.0
    value = math.log(
        joint * store.total
        / (store.pred_marginal[pred_key] * store.feat_marginal[feat_key])
    )
    return max(0.0, value)


class FeatureConfig(namedtuple("FeatureConfig", "min_count", defaults=(3,))):
    """Predicates seen fewer than ``min_count`` times get no vector."""

    __slots__ = ()


def build_vectors(store: CountStore, config: FeatureConfig = FeatureConfig()):
    """Build PMI vectors from a count store.

    Returns {predicate: {entity-key pair: weight}} in pair mode and
    {(predicate, slot): {entity key: weight}} in slot mode; a slot vector's
    type is its key's ``predicate.slot_types[slot - 1]``. Iteration is over
    sorted keys so float accumulation downstream is reproducible.
    """
    grouped: dict = {}
    for (pred_key, feat_key), _ in store.joint.items():
        grouped.setdefault(pred_key, []).append(feat_key)

    out: dict = {}
    for pred_key in sorted(grouped, key=_pred_sort_key):
        if store.pred_marginal[pred_key] < config.min_count:
            continue
        feats = {}
        for feat_key in sorted(grouped[pred_key]):
            w = pmi(store, pred_key, feat_key)
            if w > 0.0:
                feats[feat_key] = w
        out[pred_key] = feats
    return out


def _pred_sort_key(pred_key):
    """Sort key of a pair-mode key (a predicate) or a slot-mode key (a
    (predicate, slot) pair); a predicate is a tuple too, so the test is
    on its type."""
    if isinstance(pred_key, TypedPredicate):
        return (pred_key.token(), 0)
    pred, slot = pred_key
    return (pred.token(), slot)
