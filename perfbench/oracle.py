"""Independent references the benchmark checks the program's outputs with.

Nothing here imports ``entgraph``. Graph files are parsed by this module's
own reader and predicates stay plain tokens (``name#type[#type]``).

* ``Graphs`` and ``entailment``/``backoff``: brute-force query answers
  over every edge of the parsed ``.graph`` files: the best direct edge, the
  best minimum over BU->UU pairs, and the back-off mean over subgraphs.
* ``local_edges``: BInc over positive-PMI vectors, all pairs at once with
  sparse matrix products, from the generated corpus records.
* ``global_scores``: the soft-constraint objective solved as one sparse
  linear system over a whole family of subgraphs.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

import gen

REL_TOL = 1e-12
IDENTITY2, SWAP = "1:1,2:2", "1:2,2:1"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-300


def types_of(token: str) -> tuple[str, ...]:
    return tuple(token.split("#")[1:])


def untyped(token: str) -> tuple[str, int]:
    parts = token.split("#")
    return parts[0], len(parts) - 1


def signature(token: str) -> tuple[str, ...]:
    return tuple(sorted(types_of(token)))


# -- graph files ---------------------------------------------------------------


def read_graph(path: Path) -> tuple[tuple[str, ...], set[str], list[tuple]]:
    """(signature, vertex tokens, edges as (prem, hyp, kind, map, score))."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("entgraph-subgraph"):
        raise ValueError(f"{path}: not a subgraph file")
    sig, vertices, edges = None, set(), []
    for line in lines[1:]:
        if line.startswith("V\t"):
            vertices.add(line[2:])
        elif line.startswith("E\t"):
            _, prem, hyp, kind, amap, score = line.split("\t")
            edges.append((prem, hyp, kind, amap, float(score)))
        elif line.startswith("types="):
            sig = tuple(line[len("types="):].split(","))
    if sig is None:
        raise ValueError(f"{path}: no types header")
    return sig, vertices, edges


class Graphs:
    """Every subgraph of a graph directory, indexed by one scan of its edges."""

    def __init__(self, directory: Path):
        self.vertices: dict[tuple, set[str]] = {}
        self.out: dict[tuple, list[tuple]] = defaultdict(list)
        self.by_untyped: dict[tuple, list[tuple]] = defaultdict(list)
        for path in sorted(Path(directory).glob("*.graph")):
            sig, vertices, edges = read_graph(path)
            self.vertices[sig] = vertices
            for e in edges:
                self.out[(sig, e[0])].append(e)
                self.by_untyped[untyped(e[0])].append((sig, e))

    def has_vertex(self, token: str) -> bool:
        return token in self.vertices.get(signature(token), ())

    # helpers for drawing the query stream

    def out_targets(self, token: str, kind: str) -> list[tuple[str, str]]:
        return [(e[1], e[3]) for e in self.out[(signature(token), token)] if e[2] == kind]

    def vertices_like(self, token: str) -> list[tuple[str, str]]:
        valency = len(types_of(token))
        amap = IDENTITY2 if valency == 2 else "1:1"
        return [(v, amap) for v in sorted(self.vertices[signature(token)])
                if v != token and len(types_of(v)) == valency]

    def two_hop_targets(self, token: str, slot: int) -> list[str]:
        uni = (types_of(token)[slot - 1],)
        return sorted({
            e2[1]
            for e in self.out[(signature(token), token)]
            if e[2] == "BU" and e[3] == f"{slot}:1"
            for e2 in self.out[(uni, e[1])]
        })

    def unaries_of(self, token: str, slot: int) -> list[str]:
        return sorted(self.vertices.get((types_of(token)[slot - 1],), ()))

    def untyped_targets(self, name: str, valency: int) -> list[tuple[str, int, str]]:
        return sorted({(*untyped(e[1]), e[3]) for _, e in self.by_untyped[(name, valency)]})


# -- query oracle ----------------------------------------------------------------


def consistent_maps(premise_args, hypothesis_args) -> list[str]:
    p, h = tuple(premise_args), tuple(hypothesis_args)
    if len(p) == 2 and len(h) == 2:
        return [m for m, ok in ((IDENTITY2, p == h), (SWAP, p == h[::-1])) if ok]
    if len(p) == 2 and len(h) == 1:
        return [f"{s}:1" for s in (1, 2) if p[s - 1] == h[0]]
    if len(p) == 1 and len(h) == 1:
        return ["1:1"] if p == h else []
    return []


def entailment(g: Graphs, prem: str, prem_args, hyp: str, hyp_args) -> float:
    """Best typed route score, as ``GraphStore.entailment_score`` defines it."""
    maps = consistent_maps(prem_args, hyp_args)
    if not maps:
        return 0.0
    if untyped(prem) == untyped(hyp) and tuple(prem_args) == tuple(hyp_args):
        return 1.0
    sig = signature(prem)
    if prem not in g.vertices.get(sig, ()):
        return 0.0
    out = g.out[(sig, prem)]
    best = max((e[4] for e in out if e[1] == hyp and e[3] in maps), default=0.0)
    if len(prem_args) == 2 and len(hyp_args) == 1:
        for slot in (1, 2):
            uni = (types_of(prem)[slot - 1],)
            if prem_args[slot - 1] != hyp_args[0] or uni not in g.vertices:
                continue
            for e in out:
                if e[2] != "BU" or e[3] != f"{slot}:1" or e[1] == hyp:
                    continue
                for e2 in g.out[(uni, e[1])]:
                    if e2[1] == hyp:
                        best = max(best, min(e[4], e2[4]))
    return best


def backoff(g: Graphs, prem_name, prem_valency, prem_args, hyp_name, hyp_valency,
            hyp_args) -> float:
    """Mean over subgraphs of the best untyped edge, as ``backoff_score``."""
    maps = consistent_maps(prem_args, hyp_args)
    best: dict[tuple, float] = {}
    for sig, e in g.by_untyped[(prem_name, prem_valency)]:
        if untyped(e[1]) == (hyp_name, hyp_valency) and e[3] in maps:
            best[sig] = max(best.get(sig, 0.0), e[4])
    found = [best[sig] for sig in sorted(best)]
    return sum(found) / len(found) if found else 0.0


def answer(g: Graphs, query: list) -> float:
    if query[0] == "ent":
        return entailment(g, *query[1:])
    return backoff(g, *query[1:])


# -- local graphs: BInc over positive PMI -------------------------------------------


def _pmi_vectors(events, min_count: int) -> dict:
    """{key: {feature: weight}} for keys seen at least min_count times."""
    joint: dict = defaultdict(int)
    key_n: dict = defaultdict(int)
    feat_n: dict = defaultdict(int)
    for key, feat in events:
        joint[(key, feat)] += 1
        key_n[key] += 1
        feat_n[feat] += 1
    total = len(events)
    vectors: dict = {k: {} for k, n in key_n.items() if n >= min_count}
    for (key, feat), n in joint.items():
        if key in vectors:
            w = math.log(n * total / (key_n[key] * feat_n[feat]))
            if w > 0.0:
                vectors[key][feat] = w
    return vectors


def _matrix(rows: list[dict], index: dict) -> sparse.csr_matrix:
    data, cols, ptr = [], [], [0]
    for vec in rows:
        for f, w in vec.items():
            data.append(w)
            cols.append(index[f])
        ptr.append(len(data))
    return sparse.csr_matrix((data, cols, ptr), shape=(len(rows), len(index)))


def _binc(u: sparse.csr_matrix, v: sparse.csr_matrix) -> np.ndarray:
    """BInc of every row of u against every row of v (dense result)."""
    su = np.asarray(u.sum(axis=1)).ravel()
    sv = np.asarray(v.sum(axis=1)).ravel()
    mu, mv = (u != 0).astype(float), (v != 0).astype(float)
    shared_u = (u @ mv.T).toarray()  # u's mass on features both have
    shared_v = (mu @ v.T).toarray()  # v's mass on the same features
    with np.errstate(divide="ignore", invalid="ignore"):
        wp = np.where(su[:, None] > 0, shared_u / su[:, None], 0.0)
        denom = su[:, None] + sv[None, :]
        lin = np.where(denom > 0, (shared_u + shared_v) / denom, 0.0)
    return np.where(wp > 0, np.sqrt(wp * lin), 0.0)


def local_edges(records: list[dict], min_count: int = 3, threshold: float = 0.01):
    """Expected local subgraphs from normalized corpus records.

    Returns ({signature: vertex set}, {(signature, prem, hyp, kind, map): score},
    ambiguous edge keys). An edge is ambiguous when its score is within the
    tolerance of the threshold, or when identity and swap maps tie at a
    score that is kept. The vertex sets leave out the hypotheses that only
    ambiguous BU edges would add; ``vertex_mismatches`` allows those.
    """
    pair_events, slot_events = [], []
    for rec in records:
        token, keys = gen.record_token(rec)
        if len(keys) == 2:
            pair_events.append((token, keys))
        for slot, k in enumerate(keys, start=1):
            slot_events.append(((token, slot), k))
    pair_vec = _pmi_vectors(pair_events, min_count)
    slot_vec = _pmi_vectors(slot_events, min_count)

    unaries: dict[str, list[str]] = defaultdict(list)
    for token, _ in slot_vec:
        if len(types_of(token)) == 1:
            unaries[types_of(token)[0]].append(token)
    vertices: dict[tuple, set[str]] = {}
    for token in pair_vec:
        vertices.setdefault(signature(token), set()).add(token)
    for t, us in unaries.items():
        us.sort()
        vertices[(t,)] = set(us)
    edges, ambiguous = {}, set()

    def near_threshold(s):
        return abs(s - threshold) <= REL_TOL * threshold

    def keep(key, s):
        if near_threshold(s):
            ambiguous.add(key)
        if s >= threshold and s > 0.0:
            edges[key] = min(s, 1.0)

    for sig in [s for s in vertices if len(s) == 2]:
        preds = sorted(vertices[sig])
        feats = {f for p in preds for f in pair_vec[p]}
        index = {f: i for i, f in enumerate(sorted(feats | {f[::-1] for f in feats}))}
        w = _matrix([pair_vec[p] for p in preds], index)
        w_swap = _matrix([{f[::-1]: x for f, x in pair_vec[p].items()} for p in preds], index)
        ident, swap = _binc(w, w), _binc(w, w_swap)
        for i, p in enumerate(preds):
            for j, q in enumerate(preds):
                if i == j:
                    continue
                cands = []
                if types_of(p) == types_of(q):
                    cands.append((ident[i, j], IDENTITY2))
                if types_of(p) == types_of(q)[::-1]:
                    cands.append((swap[i, j], SWAP))
                s, amap = cands[0]
                if len(cands) == 2:
                    top = max(s, cands[1][0])
                    if (abs(s - cands[1][0]) <= REL_TOL * top
                            and (top >= threshold or near_threshold(top))):
                        ambiguous.update((sig, p, q, "BB", m) for _, m in cands)
                    if cands[1][0] > s:
                        s, amap = cands[1]
                keep((sig, p, q, "BB", amap), s)

    for t, us in unaries.items():
        index = {f: i for i, f in enumerate(sorted({f for u in us for f in slot_vec[(u, 1)]}))}
        wu = _matrix([slot_vec[(u, 1)] for u in us], index)
        uu = _binc(wu, wu)
        for i, p in enumerate(us):
            for j, q in enumerate(us):
                if i != j:
                    keep(((t,), p, q, "UU", "1:1"), uu[i, j])
        rows = [(p, slot) for p in sorted(pair_vec) for slot in (1, 2)
                if types_of(p)[slot - 1] == t]
        if not rows:
            continue
        index = dict(index)
        for key in rows:
            for f in slot_vec[key]:
                index.setdefault(f, len(index))
        bu = _binc(_matrix([slot_vec[k] for k in rows], index),
                   _matrix([slot_vec[(u, 1)] for u in us], index))
        for i, (p, slot) in enumerate(rows):
            for j, u in enumerate(us):
                keep((signature(p), p, u, "BU", f"{slot}:1"), bu[i, j])
    for key in edges:
        if key[3] == "BU" and key not in ambiguous:
            vertices[key[0]].add(key[2])
    return vertices, edges, ambiguous


def vertex_mismatches(expected: dict, actual: dict, ambiguous=frozenset()) -> list[str]:
    """Signatures whose vertex sets differ, apart from the hypotheses of
    ambiguous BU edges, which the program may or may not have added."""
    optional: dict = defaultdict(set)
    for sig, _, hyp, kind, _ in ambiguous:
        if kind == "BU":
            optional[sig].add(hyp)
    bad = []
    for sig in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(sig, set()), actual.get(sig, set())
        missing, extra = want - got, got - want - optional[sig]
        if missing or extra:
            bad.append(f"vertices of {sig}: missing {sorted(missing)[:3]}, "
                       f"extra {sorted(extra)[:3]}")
    return bad


# -- global graphs: the soft-constraint solve ------------------------------------------


def global_scores(edges: dict, lambda_para: float = 1.0, lambda_cross: float = 0.5,
                  tau: float = 0.9) -> dict:
    """Globalized score of every edge of one family (bivalent or univalent).

    ``edges`` maps (signature, prem, hyp, kind, map) to the local score.
    Minimizes sum (W - L)^2 + penalties by solving (I + sum lambda L_g) W = L
    for all edges at once, then clips to [0, 1].
    """
    keys = sorted(edges)
    var = {k: i for i, k in enumerate(keys)}
    rows, cols, vals = [], [], []

    def tie(weight, group):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                x, y = group[a], group[b]
                rows.extend((x, y, x, y))
                cols.extend((x, y, y, x))
                vals.extend((weight, weight, -weight, -weight))

    by_sig: dict = defaultdict(list)
    for k in keys:
        by_sig[k[0]].append(k)
    for sig, sig_keys in by_sig.items():
        best: dict = {}
        out: dict = defaultdict(dict)
        for k in sig_keys:
            best[(k[1], k[2])] = max(best.get((k[1], k[2]), 0.0), edges[k])
            out[k[1]][k[2:]] = var[k]
        for (p, q), s in best.items():
            if (p < q and s >= tau and best.get((q, p), 0.0) >= tau
                    and len(types_of(p)) == len(types_of(q))):
                for target, pv in out[p].items():
                    if target in out[q]:
                        tie(lambda_para, [pv, out[q][target]])
    across: dict = defaultdict(list)
    for k in keys:
        across[(untyped(k[1]), untyped(k[2]), k[3], k[4])].append(var[k])
    for group in across.values():
        tie(lambda_cross, group)

    n = len(keys)
    if n == 0:
        return {}
    a = sparse.identity(n, format="csc") + sparse.csc_matrix(
        (vals, (rows, cols)), shape=(n, n))
    local = np.array([edges[k] for k in keys])
    solved = np.clip(np.atleast_1d(spsolve(a, local)), 0.0, 1.0)
    return {k: float(solved[var[k]]) for k in keys}


def graph_dir_edges(directory: Path) -> tuple[dict, dict]:
    """({signature: vertices}, {(signature, prem, hyp, kind, map): score})."""
    vertices, edges = {}, {}
    for path in sorted(Path(directory).glob("*.graph")):
        sig, vs, es = read_graph(path)
        vertices[sig] = vs
        for prem, hyp, kind, amap, score in es:
            edges[(sig, prem, hyp, kind, amap)] = score
    return vertices, edges


def edge_mismatches(expected: dict, actual: dict, ambiguous=frozenset()) -> list[str]:
    """Edges missing, extra, or with a score off by more than the tolerance."""
    bad = []
    for key in sorted(expected.keys() | actual.keys()):
        if key in expected and key in actual:
            if not close(expected[key], actual[key]):
                bad.append(f"score {key}: expected {expected[key]!r}, got {actual[key]!r}")
        elif key not in ambiguous:
            bad.append(("missing " if key in expected else "extra ") + repr(key))
    return bad


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
