"""The dense workload's query process: one closed-loop client.

    python3 perfbench/query.py GRAPH_DIR QUERIES_JSON RESULT_JSON [SPANS_JSON]

It opens a ``GraphStore`` on the graph directory, parses every subgraph
through the public API, then issues the whole seeded query list, the next
query only after the last one returned. It writes its wall and CPU times,
each query's latency and the answers, for the oracle check. Each pass is a
process of its own, as a query process opens its store once: a second
store opened in the same process loaded and answered 10-20% slower than
the first. With SPANS_JSON the public functions are traced.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main(argv: list[str]) -> int:
    graph_dir, queries_path, result_path = argv[:3]
    tracer = None
    if len(argv) > 3:
        tracer = spans.Tracer()
        spans.install(tracer)
    from entgraph.model import EntityId, Proposition, TypedPredicate
    from entgraph.store import GraphStore

    def ents(keys):
        return tuple(EntityId(k, None, True) for k in keys)

    calls = []
    for q in json.loads(open(queries_path, encoding="utf-8").read()):
        if q[0] == "ent":
            _, prem, prem_args, hyp, hyp_args = q
            premise = Proposition(TypedPredicate.parse_token(prem), ents(prem_args))
            hypothesis = TypedPredicate.parse_token(hyp)
            kind = ("composed" if premise.predicate.valency == 2 and hypothesis.valency == 1
                    else "direct")
            calls.append((kind, "entailment_score", (premise, hypothesis, tuple(hyp_args))))
        else:
            _, pname, pval, pargs, hname, hval, hargs = q
            calls.append(("backoff", "backoff_score",
                          (pname, pval, tuple(pargs), hname, hval, tuple(hargs))))

    clock, cpu = time.perf_counter, time.process_time
    lat = {"direct": [], "composed": [], "backoff": []}
    answers = []
    t0, c0 = clock(), cpu()
    store = GraphStore.open(graph_dir)
    for sig in list(store.bivalent) + list(store.univalent):
        probe = (TypedPredicate("probe", 2, sig) if len(sig) == 2
                 else TypedPredicate("probe", 1, sig, ".1"))
        store.subgraph_for(probe)
    t1 = clock()
    for kind, method, args in calls:
        fn = getattr(store, method)
        a = clock()
        r = fn(*args)
        lat[kind].append(clock() - a)
        answers.append([r.score, len(r.path)])
    out = {"load_s": t1 - t0, "queries_s": clock() - t1, "cpu_s": cpu() - c0,
           "latency_s": lat, "answers": answers}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
