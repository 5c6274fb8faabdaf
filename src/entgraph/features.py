"""Sparse count statistics and PMI-weighted feature vectors.

Binary predicates get an argument-pair vector; every predicate slot
(the single unary slot, both binary slots) gets a per-slot entity vector.
Weights are positive PMI under maximum-likelihood probabilities; zero and
negative weights are dropped so feature support means genuine association.
Counts are read from the corpus's predicate and argument columns, each
entity by its key, so counting builds no proposition.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .model import Corpus


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
    """The pair store and the slot store of a corpus, counted in one pass
    over its predicate and argument columns, entities by their keys.

    pair store:  key = binary predicate,     feature = ordered entity-key pair
    slot store:  key = (predicate, slot),    feature = entity key
    """
    pairs, slots = CountStore(), CountStore()
    predicates, keys = corpus.predicates, corpus.keys
    preds, args1, args2 = corpus.columns[:3]
    for p, a, b in zip(preds, args1, args2):
        predicate, first = predicates[p], keys[a]
        slots.add((predicate, 1), first)
        if b >= 0:
            pairs.add(predicate, (first, keys[b]))
            slots.add((predicate, 2), keys[b])
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
    type is its key's ``predicate.slot_types[slot - 1]``. Keys and features
    come in the store's order: ``localgraph`` orders predicates by token and
    each vector's features before it adds anything.
    """
    grouped: dict = {}
    for (pred_key, feat_key), _ in store.joint.items():
        grouped.setdefault(pred_key, []).append(feat_key)

    out: dict = {}
    for pred_key, feat_keys in grouped.items():
        if store.pred_marginal[pred_key] < config.min_count:
            continue
        feats = {}
        for feat_key in feat_keys:
            w = pmi(store, pred_key, feat_key)
            if w > 0.0:
                feats[feat_key] = w
        out[pred_key] = feats
    return out
