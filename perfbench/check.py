"""Output checks, run in their own process after the timed stages.

    python3 perfbench/check.py qa GEN_SEED OUT_DIR...
    python3 perfbench/check.py dense CORPUS OUT_DIR...
    python3 perfbench/check.py queries CORPUS GRAPH_DIR SEED QUERIES_JSON EXPECTED_JSON MIX_JSON

``qa`` and ``dense`` print ``{out_dir: {stage: first difference}}``,
naming every stage whose output differs from the reference; ``queries``
writes the dense query stream and the oracle's answer to each query.
They run apart from ``run.py`` so that its process stays small: a child's
peak RSS as wait4 reports it starts from its parent's RSS at fork time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen
import oracle
import reference


def check_qa(gen_seed: int, outs: list[str]) -> dict:
    ref = json.loads(reference.PATH.read_text(encoding="utf-8"))[str(gen_seed)]
    return {out: {reference.PRODUCER[a]: f"{a}: {why}"
                  for a, why in reference.mismatches(Path(out), ref).items()}
            for out in outs}


def check_dense(corpus: str, outs: list[str]) -> dict:
    """Local graphs against the BInc oracle, global ones against the solve."""
    vertices, edges, ambiguous = oracle.local_edges(oracle.load_records(Path(corpus)))
    report = {}
    for out in outs:
        bad = {}
        try:
            local_v, local_e = oracle.graph_dir_edges(Path(out) / "graphs" / "local")
            global_v, global_e = oracle.graph_dir_edges(Path(out) / "graphs" / "global")
        except (OSError, ValueError) as exc:
            report[out] = {"build-local": f"graphs unreadable: {exc}"}
            continue
        diffs = (oracle.edge_mismatches(edges, local_e, ambiguous)
                 + oracle.vertex_mismatches(vertices, local_v, ambiguous))
        if diffs:
            bad["build-local"] = f"{len(diffs)} differences, first: {diffs[0]}"
        expected = {}
        for family in (1, 2):
            expected.update(oracle.global_scores(
                {k: v for k, v in local_e.items() if len(k[0]) == family}))
        diffs = oracle.edge_mismatches(expected, global_e)
        if global_v != local_v:
            diffs.append("vertex sets differ from the local graphs")
        if diffs:
            bad["globalize"] = f"{len(diffs)} differences, first: {diffs[0]}"
        report[out] = bad
    return report


def make_queries(corpus: str, graph_dir: str, seed: str, queries_out: str,
                 expected_out: str, mix: dict) -> None:
    graphs = oracle.Graphs(Path(graph_dir))
    lines = Path(corpus).read_text(encoding="utf-8").splitlines()
    queries = gen.query_stream(lines, graphs, **mix, seed=int(seed))
    Path(queries_out).write_text(json.dumps(queries), encoding="utf-8")
    expected = [oracle.answer(graphs, q) for q in queries]
    Path(expected_out).write_text(json.dumps(expected), encoding="utf-8")


def main(argv: list[str]) -> int:
    kind, *rest = argv
    if kind == "qa":
        print(json.dumps(check_qa(int(rest[0]), rest[1:])))
    elif kind == "dense":
        print(json.dumps(check_dense(rest[0], rest[1:])))
    elif kind == "queries":
        make_queries(*rest[:5], mix=json.loads(rest[5]))
    else:
        raise SystemExit(f"unknown check {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
