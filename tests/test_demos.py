"""Smoke tests: the demo scripts and the README quick start run and print something."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    # Demos leave nothing behind in the temp or working directory.
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 2
