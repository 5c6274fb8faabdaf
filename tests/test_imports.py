"""Each stage process imports only the layers it runs, and none loads numpy,
``dataclasses`` or ``inspect`` (class code generation costs start-up time).

Every test runs in a child interpreter, because this one has already
imported everything. The child finds the package where this process
found it, so the tests work installed and from a checkout alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entgraph

SRC = str(Path(entgraph.__file__).resolve().parent.parent)

# prints the entgraph layers and the watched modules loaded once the code
# before it ran
LOADED = """
import json, sys
watched = ("numpy", "dataclasses", "inspect")
print(json.dumps(sorted(m for m in sys.modules if m in watched or m.startswith("entgraph."))))
"""

RUN_STAGE = """
import sys
from entgraph import cli
if cli.main(sys.argv[1:]) != 0:
    sys.exit("stage failed")
""" + LOADED

STAGES = {
    "ingest": ["ingest"],
    "build-local": ["build-local"],
    "globalize": ["globalize"],
    "gen-questions": ["gen-questions", "--seed", "3"],
    "answer-graph": ["answer", "--model", "graph"],
    "answer-exact": ["answer", "--model", "exact"],
    "evaluate": ["evaluate", "--k", "10"],
    "query": ["query", "kill.2", "die.1", "--type", "person"],
}

# the stages whose process loads each module
GRAPH_STAGES = {"build-local", "globalize", "answer-graph", "query"}
USERS = {
    "numpy": set(),
    "dataclasses": set(),
    "inspect": set(),
    "entgraph.features": GRAPH_STAGES,
    "entgraph.localgraph": GRAPH_STAGES,
    "entgraph.graphio": GRAPH_STAGES,
    "entgraph.ingest": {"ingest"},
    "entgraph.globalgraph": {"globalize"},
    "entgraph.qagen": {"gen-questions", "answer-graph", "answer-exact", "evaluate"},
    "entgraph.lexicon": {"gen-questions"},
    "entgraph.qaeval": {"answer-graph", "answer-exact", "evaluate"},
    "entgraph.store": {"answer-graph", "query"},
}


def _loaded(code: str, *args: str) -> set[str]:
    """The ``entgraph.*`` and watched modules a child running ``code`` has loaded."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory) -> dict[str, set[str]]:
    """The sample pipeline, one stage per child process."""
    out = str(tmp_path_factory.mktemp("stages"))
    return {stage: _loaded(RUN_STAGE, *argv, "--out", out) for stage, argv in STAGES.items()}


@pytest.mark.parametrize("module", ["entgraph.cli", "entgraph.store"])
def test_import_leaves_numpy_out(module):
    loaded = _loaded(f"import {module}" + LOADED)
    assert module in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("module", USERS)
def test_module_loaded_only_by_stages_that_use_it(module, stage_modules):
    assert {s for s, loaded in stage_modules.items() if module in loaded} == USERS[module]
