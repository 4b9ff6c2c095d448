"""Smoke test of the narrated scripts in demos/ and of README's Quick start:
each runs to completion in a fresh interpreter against this checkout's src/
(about half a minute in all, most of it in 03_rate_exponents.py)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    # the section's Python blocks, in order, as one script: the second uses
    # the first one's data; a warning fails it
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
