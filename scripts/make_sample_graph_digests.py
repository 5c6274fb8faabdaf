#!/usr/bin/env python3
"""Regenerate the golden digests of the sample pipeline's graphs.

Runs ``ingest``, ``build-local`` and ``globalize`` with their defaults
(the shipped sample corpus) through ``entgraph.cli.main`` in a temporary
directory, then writes the sha256 of every ``graphs/local`` and
``graphs/global`` file to ``tests/data/sample_graph_digests.sha256`` in
``sha256sum`` format, which ``tests/test_cli.py::TestGoldenGraphs``
checks. Run it after an intended change to the graphs:

    python3 scripts/make_sample_graph_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "sample_graph_digests.sha256"

sys.path.insert(0, str(ROOT / "src"))

from entgraph.cli import EXIT_OK, main as cli_main  # noqa: E402


def digest_lines(graphs: Path) -> list[str]:
    """``sha256sum local/*.graph global/*.graph`` run in ``graphs``."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(graphs).as_posix()}"
        for family in ("local", "global")
        for path in sorted((graphs / family).glob("*.graph"))
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for stage in ("ingest", "build-local", "globalize"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([stage, "--out", tmp])
            if code != EXIT_OK:
                sys.exit(f"entgraph {stage} exited with {code}")
        lines = digest_lines(Path(tmp) / "graphs")
    OUT.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} digests to {OUT}")


if __name__ == "__main__":
    main()
