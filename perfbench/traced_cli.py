"""Run one ``entgraph`` CLI stage with its public functions traced.

    python3 perfbench/traced_cli.py SPANS_JSON -- STAGE [ARGS...]

The spans and counts are kept in memory and written to SPANS_JSON when
the stage returns, with the ``time.perf_counter()`` reading at that point
(a monotonic clock ``run.py`` shares); the exit code is the stage's.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- STAGE [ARGS...]")
    tracer = spans.Tracer()
    spans.install(tracer)
    from entgraph import cli

    code = cli.main(cli_args)
    end = time.perf_counter()  # run.py's clock too; excludes writing spans
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "end": end}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
