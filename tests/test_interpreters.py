"""Local graphs are the same bytes under every supported CPython.

``ingest`` and ``build-local`` import only the standard library, so each
CPython >= 3.10 found here (``python3.N`` on ``PATH``, or a pyenv
install) runs them straight from the source tree on the shipped sample.
Every file they write must equal the one this interpreter writes: scores
add their weights left to right, so Python 3.12's compensated ``sum``
cannot move their last bits. The test skips only when no other
interpreter is found.
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


def local_stage_outputs(python: str | Path, out: Path) -> dict[str, bytes]:
    """The corpus and local graph files ``ingest`` and ``build-local`` write
    on the sample when run by ``python``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for stage in ("ingest", "build-local"):
        run = subprocess.run(
            [str(python), "-m", "entgraph.cli", stage, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, f"{python} {stage}: {run.stderr}"
    files = [out / "corpus.jsonl", *sorted((out / "graphs" / "local").glob("*.graph"))]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def test_local_graphs_identical_across_interpreters(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 found")
    expected = local_stage_outputs(sys.executable, tmp_path / "this")
    assert len(expected) > 1
    differ = {}
    for version, exe in sorted(others.items()):
        got = local_stage_outputs(exe, tmp_path / version)
        names = sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))
        if names:
            differ[version] = names
    assert differ == {}, f"files that differ from Python {sys.version.split()[0]}'s"
