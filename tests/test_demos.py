"""Every narrative script in demos/, and the README's library quick tour, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrapoly

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    src = str(Path(ultrapoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def test_demo_scripts_are_present():
    assert DEMOS, "an empty parametrization below would pass silently"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_readme_quick_tour_runs_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "assemble_expansion" in block  # the tour, not some other block
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
