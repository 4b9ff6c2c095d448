"""Smoke test of the narrated scripts in demos/ and of README's Quick start:
each runs to completion in a fresh interpreter against this checkout's src/
(about half a minute in all, most of it in 03_rate_exponents.py). Also the
report of tools/golden.py --compare."""

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


def test_golden_compare_names_the_json_keys_that_differ(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "same.json": ('{"a":1}\n', '{"a":1}\n'),
        "trace.json": ('{"a":1,"b":[1,2],"c":"x","n":NaN}\n',
                       '{"a":1.0,"b":[1],"d":"x","n":NaN}\n'),
        "close.json": ('{"a":1.0}\n', '{"a":1.0000000000001}\n'),
        "list.json": ("[1]\n", "[1,2]\n"),
        "text.csv": ("a,1\n", "b,1\n"),
    }
    for root, side in ((old, 0), (new, 1)):
        root.mkdir()
        for name, texts in files.items():
            (root / name).write_text(texts[side])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"), "--compare", str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL trace.json: text outside numbers differs; keys that differ: b, c, d" in lines
    assert "FAIL list.json: text outside numbers differs" in lines
    assert "FAIL text.csv: text outside numbers differs" in lines
    assert any(line.startswith("close close.json: 1 numbers differ") for line in lines)
    assert lines[-1] == "3 failed of 5 files"
