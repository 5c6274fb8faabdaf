"""The sample pipeline writes the same bytes under every supported CPython.

The package imports only the standard library, so each CPython >= 3.10
found here (``python3.N`` on ``PATH``, or a pyenv install) runs every
stage, ``ingest`` to ``evaluate`` and ``query``, straight from the source
tree on the shipped sample. Every file they write, manifests included,
and every stage's standard output must equal what this interpreter's
run gives: scores add their terms in a fixed order, so Python 3.12's
compensated ``sum`` cannot move their last bits, and the global solve
runs in plain Python, with no BLAS build in the loop. The test skips only when no other interpreter is found.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
_PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"


def _candidates() -> list[Path]:
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(root.glob("*/bin/python3"))
    for minor in range(10, 30):
        exe = shutil.which(f"python3.{minor}")
        if exe is not None:
            found.append(Path(exe))
    return found


def other_interpreters() -> dict[str, Path]:
    """Version -> executable of each CPython >= 3.10 but this one's version."""
    this = ".".join(map(str, sys.version_info[:3]))
    found: dict[str, Path] = {}
    for exe in _candidates():
        try:
            probe = subprocess.run(
                [str(exe), "-c", _PROBE], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split()
        if probe.returncode != 0 or len(fields) != 4 or fields[0] != "CPython":
            continue
        version = ".".join(fields[1:])
        if tuple(map(int, fields[1:3])) >= (3, 10) and version != this:
            found.setdefault(version, exe)
    return found


# run in order, each with ``--out .`` inside the output directory
STAGES = (
    ["ingest"],
    ["build-local"],
    ["globalize"],
    ["gen-questions", "--seed", "3"],
    ["answer", "--model", "graph"],
    ["answer", "--model", "exact"],
    ["evaluate"],
    ["evaluate", "--filtered"],
    ["query", "kill.2", "die.1", "--type", "person"],
)


def pipeline_outputs(python: str | Path, out: Path) -> dict[str, bytes]:
    """The artifacts and the standard output of each stage of the sample
    pipeline run by ``python`` in ``out``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out.mkdir()
    outputs = {}
    for argv in STAGES:
        run = subprocess.run(
            [str(python), "-m", "entgraph.cli", *argv, "--out", "."],
            cwd=out, env=env, capture_output=True, timeout=600,
        )
        assert run.returncode == 0, f"{python} {' '.join(argv)}: {run.stderr.decode()}"
        outputs[f"stdout of {' '.join(argv)}"] = run.stdout
    for path in sorted(out.rglob("*")):
        if path.is_file():
            outputs[path.relative_to(out).as_posix()] = path.read_bytes()
    return outputs


def test_artifacts_identical_across_interpreters(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 found")
    expected = pipeline_outputs(sys.executable, tmp_path / "this")
    assert any(name.startswith("graphs/global/") for name in expected)
    differ = {}
    for version, exe in sorted(others.items()):
        got = pipeline_outputs(exe, tmp_path / version)
        names = sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))
        if names:
            differ[version] = names
    assert differ == {}, f"outputs that differ from Python {sys.version.split()[0]}'s"
