"""The demo scripts and the README quick start run; two demos print pinned bytes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# Exactly what each demo prints: every number comes from the library.
PINNED_STDOUT = {
    "weekly_index_walkthrough": (
        "week  total  weight\n"
        "   0     19  0.7220\n"
        "   1     36  1.0608\n"
        "   2    110  2.6676\n"
        "   3     45  1.3218\n"
        "\n"
        "spike week, per category: share * weight = index\n"
        " CINJ  0.1255 * 2.6676 = 0.3349\n"
        " EVAC  0.0563 * 2.6676 = 0.1501\n"
        " INFR  0.1948 * 2.6676 = 0.5197\n"
        " ENVD  0.0303 * 2.6676 = 0.0808\n"
        " RSRC  0.0823 * 2.6676 = 0.2194\n"
        " PUBH  0.0649 * 2.6676 = 0.1732\n"
        " EMOT  0.0996 * 2.6676 = 0.2656\n"
        " BIAS  0.0216 * 2.6676 = 0.0577\n"
        " ASST  0.0736 * 2.6676 = 0.1963\n"
        " SECO  0.0303 * 2.6676 = 0.0808\n"
        "OTHER  0.2208 * 2.6676 = 0.5889\n"
        "shares sum to 1.000000000\n"
        "\n"
        "week  physical  social\n"
        "   0    0.3684  0.1915\n"
        "   1    0.5240  0.3195\n"
        "   2    1.3049  0.7737\n"
        "   3    0.6413  0.4057\n"
        "scale ceiling is pi = 3.1416\n"
    ),
    "lead_lag_validation": (
        "lag   rho      overlap\n"
        "-3   -0.667    9 weeks\n"
        "-2   -0.152   10 weeks\n"
        "-1   +0.493   11 weeks\n"
        "+0   +0.867   12 weeks\n"
        "+1   +0.998   11 weeks\n"
        "+2   +0.772   10 weeks\n"
        "+3   +0.134    9 weeks\n"
        "\n"
        "strongest association at +1 weeks (rho = 0.998, strong range): "
        "ground truth leads the index by 1 week\n"
        "lag 1 pairs each index week with the ground-truth value 1 week later\n"
    ),
}


def run_demo(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    # Demos leave nothing behind in the temp or working directory.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_demo_prints_its_pinned_bytes(name, tmp_path):
    result = run_demo(ROOT / "demos" / f"{name}.py", tmp_path)
    assert (result.returncode, result.stdout) == (0, PINNED_STDOUT[name])


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
