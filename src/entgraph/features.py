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


class CountStore:
    """Joint and marginal occurrence counts of (key, feature) events."""

    def __init__(self) -> None:
        self.joint: Counter = Counter()
        self.pred_marginal: Counter = Counter()
        self.feat_marginal: Counter = Counter()
        self.total = 0

    def add(self, pred_key, feat_key, n: int = 1) -> None:
        self.joint[(pred_key, feat_key)] += n
        self.pred_marginal[pred_key] += n
        self.feat_marginal[feat_key] += n
        self.total += n


def count(corpus: Corpus) -> tuple[CountStore, CountStore]:
    """The pair store and the slot store of a corpus, counted in one pass.

    pair store:  key = binary predicate,     feature = ordered entity-key pair
    slot store:  key = (predicate, slot),    feature = entity key
    """
    pairs, slots = CountStore(), CountStore()
    for prop in corpus:
        args = prop.args
        if prop.predicate.valency == 2:
            pairs.add(prop.predicate, (args[0].key, args[1].key))
        for slot, arg in enumerate(args, start=1):
            slots.add((prop.predicate, slot), arg.key)
    return pairs, slots


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

    Returns {predicate: {entity-key pair: weight}} from a pair store and
    {(predicate, slot): {entity key: weight}} from a slot store; a slot vector's
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
    """Sort key of a pair store's key (a predicate) or a slot store's key
    (a (predicate, slot) pair); a predicate is a tuple too, so the test is
    on its type."""
    if isinstance(pred_key, TypedPredicate):
        return (pred_key.token(), 0)
    pred, slot = pred_key
    return (pred.token(), slot)
