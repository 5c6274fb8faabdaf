"""Fingerprints of the qa-sample outputs, and the stored reference.

The qa-sample corpus has a fixed structure; the run seed only salts entity
names (stripped here) and picks one of ``run.QA_GEN_SEEDS`` question-generation
seeds. So its consumed outputs can be compared with a reference made once
from a known-good commit:

    python3 perfbench/reference.py      # rewrites perfbench/reference/qa-sample.json

A fingerprint keeps, per artifact, the sha256 of its text with every score
blanked out, plus the scores, which are compared within 1e-12 relative.
Manifests, debug dumps (``counts.*``, ``vectors.*``) and ``*.prov.tsv``
are not fingerprinted, since no stage consumes them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import oracle

PATH = Path(__file__).resolve().parent / "reference" / "qa-sample.json"
_SALT = re.compile(r"~(\d{4})[0-9a-f]{8}")

# artifact -> the stage that writes it
PRODUCER = {
    "graphs/local": "build-local",
    "graphs/global": "globalize",
    "questions.jsonl": "gen-questions",
    "evidence.jsonl": "gen-questions",
    "answers-graph-bb+bu+uu.csv": "answer-graph",
    "answers-exact.csv": "answer-exact",
    "report": "evaluate",
}


def _graphs(directory: Path):
    lines, floats = [], []
    for path in sorted(directory.glob("*.graph")):
        sig, vertices, edges = oracle.read_graph(path)
        lines.append(f"G\t{','.join(sig)}")
        lines.extend(f"V\t{v}" for v in sorted(vertices))
        for prem, hyp, kind, amap, score in sorted(edges):
            lines.append(f"E\t{prem}\t{hyp}\t{kind}\t{amap}")
            floats.append(score)
    return lines, floats


def _csv(text: str, float_columns):
    lines, floats = [], []
    for row in csv.reader(io.StringIO(text)):
        for i in float_columns:
            if i < len(row) and lines:
                floats.append(float(row[i]))
                row[i] = "*"
        lines.append(",".join(row))
    return lines, floats


def _artifact(out: Path, name: str):
    path = out / name
    if name.startswith("graphs/"):
        return _graphs(path)
    if name == "report":
        lines, floats = [], []
        for p in sorted(path.iterdir()):
            text = p.read_text(encoding="utf-8")
            part = (_csv(text, (0, 1, 2)) if p.suffix == ".csv"
                    else (text.splitlines(), []))
            lines += [f"F\t{p.name}"] + part[0]
            floats += part[1]
        return lines, floats
    text = _SALT.sub(r"~\1", path.read_text(encoding="utf-8"))
    if name.endswith(".csv"):
        return _csv(text, (2,))
    return text.splitlines(), []


def fingerprint(out: Path) -> dict:
    """{artifact: {"sha256", "values", "index"}}; scores as distinct values
    plus an index per score, in order."""
    result = {}
    for name in PRODUCER:
        lines, floats = _artifact(out, name)
        values: dict[float, int] = {}
        index = [values.setdefault(x, len(values)) for x in floats]
        result[name] = {
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "values": list(values),
            "index": index,
        }
    return result


def mismatches(out: Path, reference: dict) -> dict[str, str]:
    """{artifact: reason} for every artifact that differs from the reference."""
    bad = {}
    for name, ref in reference.items():
        try:
            lines, floats = _artifact(out, name)
        except (OSError, ValueError, IndexError) as exc:
            bad[name] = f"unreadable: {exc}"
            continue
        if hashlib.sha256("\n".join(lines).encode()).hexdigest() != ref["sha256"]:
            bad[name] = "content differs"
            continue
        expected = [ref["values"][i] for i in ref["index"]]
        if len(floats) != len(expected):
            bad[name] = f"{len(floats)} scores, expected {len(expected)}"
            continue
        wrong = [i for i, (a, b) in enumerate(zip(floats, expected))
                 if not oracle.close(a, b)]
        if wrong:
            bad[name] = f"{len(wrong)} scores off, first at {wrong[0]}"
    return bad


def main() -> int:
    import run
    import spans

    refs = {}
    for gen_seed in range(run.QA_GEN_SEEDS):
        bench = run.Bench()
        work = run.qa_setup(gen_seed)
        run.run_stages(bench, work / "out-0", work / "corpus.jsonl", spans.STAGES,
                       gen_seed)
        if bench.failed:
            print(f"seed {gen_seed}: stage failures {bench.errors}", file=sys.stderr)
            return 1
        refs[str(gen_seed)] = fingerprint(work / "out-0")
    PATH.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(refs.items()))
    PATH.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
