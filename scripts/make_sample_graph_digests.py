#!/usr/bin/env python3
"""Regenerate the golden digests of the sample pipeline's graphs and answers.

Runs ``ingest``, ``build-local`` and ``globalize`` with their defaults
(the shipped sample corpus) through ``entgraph.cli.main`` in a temporary
directory, then writes the sha256 of every ``graphs/local`` and
``graphs/global`` file to ``tests/data/sample_graph_digests.sha256`` in
``sha256sum`` format, which ``tests/test_cli.py::TestGoldenGraphs``
checks. It then runs ``gen-questions --seed 3`` and the graph model's
``answer --components`` for each of the 7 non-empty subsets of
``bb,bu,uu``, and writes the sha256 of every ``answers-*.csv`` to
``tests/data/sample_answer_digests.sha256``, which
``tests/test_cli.py::TestStageWiring::test_answer_file_name_matches_model_id``
checks. Run it after an intended change to the graphs or the answers:

    python3 scripts/make_sample_graph_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
OUT = DATA / "sample_graph_digests.sha256"
ANSWERS_OUT = DATA / "sample_answer_digests.sha256"

# the question seed of tests/test_cli.py's pipeline fixture
QUESTION_SEED = "3"
COMPONENTS = tuple(
    ",".join(subset)
    for n in (1, 2, 3)
    for subset in itertools.combinations(("bb", "bu", "uu"), n)
)

sys.path.insert(0, str(ROOT / "src"))

from entgraph.cli import EXIT_OK, main as cli_main  # noqa: E402


def _sha256sum(paths, base: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(base).as_posix()}"
        for path in paths
    ]


def digest_lines(graphs: Path) -> list[str]:
    """``sha256sum local/*.graph global/*.graph`` run in ``graphs``."""
    families = (sorted((graphs / family).glob("*.graph")) for family in ("local", "global"))
    return _sha256sum([path for paths in families for path in paths], graphs)


def answer_digest_lines(out: Path) -> list[str]:
    """``sha256sum answers-*.csv`` run in ``out``."""
    return _sha256sum(sorted(out.glob("answers-*.csv")), out)


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != EXIT_OK:
        sys.exit(f"entgraph {argv[0]} exited with {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for stage in ("ingest", "build-local", "globalize"):
            _run(stage, "--out", tmp)
        _run("gen-questions", "--out", tmp, "--seed", QUESTION_SEED)
        for components in COMPONENTS:
            _run("answer", "--out", tmp, "--components", components)
        lines = digest_lines(Path(tmp) / "graphs")
        answer_lines = answer_digest_lines(Path(tmp))
    for path, found in ((OUT, lines), (ANSWERS_OUT, answer_lines)):
        path.write_text("".join(line + "\n" for line in found), encoding="utf-8")
        print(f"wrote {len(found)} digests to {path}")


if __name__ == "__main__":
    main()
